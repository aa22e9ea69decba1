package netctl

import (
	"testing"

	"mmx/internal/mac"
)

// fakeCarrier yields the same scripted frames to every attempt, frame i
// arriving (i+1) ms after the send, and counts what was read.
type fakeCarrier struct {
	frames [][]byte
	next   int
	sends  int
	reads  int
}

func (f *fakeCarrier) Send([]byte, float64) error {
	f.sends++
	f.next = 0
	return nil
}

func (f *fakeCarrier) Recv() ([]byte, float64, bool) {
	if f.next == len(f.frames) {
		return nil, 0, false
	}
	f.next++
	f.reads++
	return f.frames[f.next-1], 1e-3 * float64(f.next), true
}

func frameOf(t *testing.T, msg any) []byte {
	t.Helper()
	b, err := mac.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCarryAcceptanceRule drives the one attempt loop through a fake
// carrier, one row per rule of the acceptance rule. Each row puts one
// frame in front of the matching reply within a single attempt, so a
// loop that mishandles the frame returns the wrong reply, fails the
// attempt, or reads on.
func TestCarryAcceptanceRule(t *testing.T) {
	const node, seq = 7, 5
	start := Grant{
		Assignment: mac.Assignment{NodeID: node, CenterHz: 24.1e9, WidthHz: 7.5e6, FSKOffsetHz: 3.75e5},
		Shared:     true,
		Harmonic:   1,
	}
	ack := mac.RenewAckMsg{NodeID: node, Seq: seq, CenterHz: 24.1e9, WidthHz: 7.5e6, FSKOffsetHz: 3.75e5, Harmonic: 1, Shared: true}
	ackRaw := frameOf(t, ack)
	promote := func(id uint32) []byte {
		return frameOf(t, mac.PromoteMsg{NodeID: id, CenterHz: 24.2e9, WidthHz: 15e6, FSKOffsetHz: 7.5e5})
	}
	promoted := Grant{Assignment: mac.Assignment{NodeID: node, CenterHz: 24.2e9, WidthHz: 15e6, FSKOffsetHz: 7.5e5}}

	for _, tc := range []struct {
		name   string
		first  []byte // the frame ahead of the matching reply; nil = none
		wantOK bool
		grant  Grant // the session's grant afterwards
		tally  Tally
		reads  int
	}{
		{name: "match", wantOK: true, grant: start, reads: 1},
		{name: "garbled", first: ackRaw[:len(ackRaw)-1], wantOK: true, grant: start, reads: 2},
		{name: "promote-self", first: promote(node), wantOK: true, grant: promoted, tally: Tally{Promotes: 1}, reads: 2},
		{name: "promote-other", first: promote(node + 1), wantOK: true, grant: start, reads: 2},
		{name: "stale-seq", first: frameOf(t, mac.RenewAckMsg{NodeID: node, Seq: seq - 1}), wantOK: true, grant: start, reads: 2},
		{name: "wrong-node", first: frameOf(t, mac.RenewAckMsg{NodeID: node + 1, Seq: seq}), wantOK: true, grant: start, reads: 2},
		{name: "stale-shed", first: frameOf(t, ShedReply(node, seq-1)), wantOK: true, grant: start, reads: 2},
		{name: "shed", first: frameOf(t, ShedReply(node, seq)), grant: start, tally: Tally{Sheds: 1}, reads: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := &fakeCarrier{frames: [][]byte{ackRaw}}
			if tc.first != nil {
				fc.frames = [][]byte{tc.first, ackRaw}
			}
			s := Session{ID: node, Grant: start}
			var tally Tally
			r := Retrier{TimeoutS: 0.02, MaxAttempts: 1}
			reply, took, err := Carry(r, nil, fc, &s, &tally, frameOf(t, mac.RenewMsg{NodeID: node, Seq: seq}))
			if tc.wantOK {
				if err != nil || reply != any(ack) {
					t.Fatalf("reply %#v err %v, want the matching ack", reply, err)
				}
				// The time taken is the carrier's measure of the accepted
				// frame, never recomputed by the loop.
				if want := 1e-3 * float64(len(fc.frames)); took != want {
					t.Fatalf("took %v, want the carrier's %v", took, want)
				}
			} else if err != ErrExhausted || reply != nil {
				t.Fatalf("reply %#v err %v, want the attempt to fail", reply, err)
			}
			if s.Grant != tc.grant {
				t.Fatalf("grant %+v, want %+v", s.Grant, tc.grant)
			}
			if tally != tc.tally {
				t.Fatalf("tally %+v, want %+v", tally, tc.tally)
			}
			// A shed ends the attempt at once: the reply scripted after it
			// is never read, so the attempt does not wait out its timeout.
			if fc.sends != 1 || fc.reads != tc.reads {
				t.Fatalf("sends %d reads %d, want 1 and %d", fc.sends, fc.reads, tc.reads)
			}
		})
	}
}
