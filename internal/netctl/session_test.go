package netctl

import (
	"errors"
	"reflect"
	"testing"

	"mmx/internal/mac"
)

// scripted is an Exchange that answers from a script and records every
// request it was handed, decoded.
type scripted struct {
	t     *testing.T
	steps []step
	reqs  []any
}

type step struct {
	reply any
	took  float64
	err   error
}

func (sc *scripted) exchange(frame []byte) (any, float64, error) {
	sc.t.Helper()
	req, err := mac.Unmarshal(frame)
	if err != nil {
		sc.t.Fatalf("request frame %x: %v", frame, err)
	}
	if len(sc.reqs) == len(sc.steps) {
		sc.t.Fatalf("unscripted request %#v", req)
	}
	st := sc.steps[len(sc.reqs)]
	sc.reqs = append(sc.reqs, req)
	return st.reply, st.took, st.err
}

// TestSessionVerbs drives Join / Renew / Release / ApplyPromote in
// isolation over a scripted exchange — every branch both the socket
// client and the simulator reach — asserting the outcome, the state
// left behind, the sequence numbers consumed and the exact requests
// emitted.
func TestSessionVerbs(t *testing.T) {
	const (
		id     = uint32(7)
		demand = 60e6
	)
	width := mac.BandwidthForRate(demand)
	asg := func(center, w, fsk float64) mac.Assignment {
		return mac.Assignment{NodeID: id, CenterHz: center, WidthHz: w, FSKOffsetHz: fsk}
	}
	fresh := Session{ID: id, Demand: demand}
	owner := Session{ID: id, seq: 4, Demand: demand, Joined: true,
		Grant: Grant{Assignment: asg(24.05e9, 75e6, 3.75e6)}}
	sharer := Session{ID: id, seq: 4, Demand: demand, Joined: true,
		Grant: Grant{Assignment: asg(24.1e9, width, width*0.05), Shared: true, Harmonic: -2}}
	// with returns base after the verb consumed n sequence numbers and
	// edit adjusted the rest.
	with := func(base Session, n uint32, edit func(*Session)) Session {
		base.seq += n
		if edit != nil {
			edit(&base)
		}
		return base
	}
	place := func(nominalHz float64, nominal int8) (float64, int8) {
		if nominalHz != 24.1e9 || nominal != -2 {
			t.Errorf("placement hook saw (%g, %d), want the AP's nominal pair", nominalHz, nominal)
		}
		return 24.2e9, 3
	}
	join := func(p Placement) func(*Session, Exchange) (RenewOutcome, float64, error) {
		return func(s *Session, x Exchange) (RenewOutcome, float64, error) {
			took, err := s.Join(x, p)
			return 0, took, err
		}
	}
	renew := func(p Placement) func(*Session, Exchange) (RenewOutcome, float64, error) {
		return func(s *Session, x Exchange) (RenewOutcome, float64, error) { return s.Renew(x, p) }
	}
	release := func(s *Session, x Exchange) (RenewOutcome, float64, error) {
		took, err := s.Release(x)
		return 0, took, err
	}
	errDown := errors.New("transport down")
	reject := mac.RejectMsg{NodeID: id, ShareHz: 24.1e9, Harmonic: -2}
	grant := mac.AssignmentMsg{NodeID: id, CenterHz: 24.05e9, WidthHz: 75e6, FSKOffsetHz: 3.75e6}

	cases := []struct {
		name    string
		start   Session
		run     func(*Session, Exchange) (RenewOutcome, float64, error)
		script  []step
		reqs    []any
		outcome RenewOutcome
		took    float64
		err     error // errors.Is target; nil means success
		want    Session
	}{
		{
			name: "join-grant", start: fresh, run: join(nil),
			script: []step{{reply: grant, took: 0.25}},
			reqs:   []any{mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand}},
			took:   0.25,
			want:   with(owner, 0, func(s *Session) { s.seq = 1 }),
		},
		{
			name: "join-grant-clears-sdm", start: sharer, run: join(nil),
			script: []step{{reply: grant, took: 0.25}},
			reqs:   []any{mac.JoinRequest{NodeID: id, Seq: 5, DemandBps: demand}},
			took:   0.25,
			want:   with(owner, 1, nil),
		},
		{
			name: "join-reject-nominal", start: fresh, run: join(nil),
			script: []step{{reply: reject, took: 0.25}, {reply: mac.AckMsg{NodeID: id}, took: 0.5}},
			reqs: []any{
				mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand},
				mac.ShareConfirmMsg{NodeID: id, Seq: 2, ShareHz: 24.1e9, WidthHz: width, Harmonic: -2},
			},
			took: 0.75,
			want: with(sharer, 0, func(s *Session) { s.seq = 2 }),
		},
		{
			name: "join-reject-placed", start: fresh, run: join(place),
			script: []step{{reply: reject, took: 0.25}, {reply: mac.AckMsg{NodeID: id}, took: 0.5}},
			reqs: []any{
				mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand},
				mac.ShareConfirmMsg{NodeID: id, Seq: 2, ShareHz: 24.2e9, WidthHz: width, Harmonic: 3},
			},
			took: 0.75,
			want: with(sharer, 0, func(s *Session) { s.seq, s.Assignment.CenterHz, s.Harmonic = 2, 24.2e9, 3 }),
		},
		{
			// The placement is chosen but the AP never heard it: the node
			// operates on it, unjoined, until a renew heals the books.
			name: "join-confirm-lost", start: fresh, run: join(nil),
			script: []step{{reply: reject, took: 0.25}, {took: 0.5, err: ErrExhausted}},
			reqs: []any{
				mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand},
				mac.ShareConfirmMsg{NodeID: id, Seq: 2, ShareHz: 24.1e9, WidthHz: width, Harmonic: -2},
			},
			took: 0.75, err: ErrJoinFailed,
			want: with(sharer, 0, func(s *Session) { s.seq, s.Joined = 2, false }),
		},
		{
			name: "join-confirm-unexpected", start: fresh, run: join(nil),
			script: []step{{reply: reject, took: 0.25}, {reply: mac.RenewNackMsg{NodeID: id}, took: 0.5}},
			reqs: []any{
				mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand},
				mac.ShareConfirmMsg{NodeID: id, Seq: 2, ShareHz: 24.1e9, WidthHz: width, Harmonic: -2},
			},
			took: 0.75, err: ErrJoinFailed,
			want: with(sharer, 0, func(s *Session) { s.seq, s.Joined = 2, false }),
		},
		{
			name: "join-unexpected", start: fresh, run: join(nil),
			script: []step{{reply: mac.AckMsg{NodeID: id}, took: 0.25}},
			reqs:   []any{mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand}},
			took:   0.25, err: ErrJoinFailed,
			want: with(fresh, 1, nil),
		},
		{
			name: "join-no-reply", start: fresh, run: join(nil),
			script: []step{{took: 0.5, err: ErrExhausted}},
			reqs:   []any{mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand}},
			took:   0.5, err: ErrJoinFailed,
			want: with(fresh, 1, nil),
		},
		{
			name: "renew-ok", start: sharer, run: renew(nil),
			script: []step{{reply: mac.RenewAckMsg{NodeID: id, CenterHz: 24.1e9, WidthHz: width, Shared: true, Harmonic: -2}, took: 0.25}},
			reqs:   []any{mac.RenewMsg{NodeID: id, Seq: 5}},
			took:   0.25, outcome: RenewOK,
			want: with(sharer, 1, nil),
		},
		{
			// The AP's books moved (a lost promote in reverse: the owner
			// now shares): the ack's channel, role and harmonic are adopted.
			name: "renew-resync", start: owner, run: renew(nil),
			script: []step{{reply: mac.RenewAckMsg{NodeID: id, CenterHz: 24.1e9, WidthHz: width, FSKOffsetHz: width * 0.05, Shared: true, Harmonic: -2}, took: 0.25}},
			reqs:   []any{mac.RenewMsg{NodeID: id, Seq: 5}},
			took:   0.25, outcome: RenewResynced,
			want: with(sharer, 1, nil),
		},
		{
			name: "renew-nack-rejoin", start: sharer, run: renew(nil),
			script: []step{{reply: mac.RenewNackMsg{NodeID: id}, took: 0.25}, {reply: grant, took: 0.5}},
			reqs: []any{
				mac.RenewMsg{NodeID: id, Seq: 5},
				mac.JoinRequest{NodeID: id, Seq: 6, DemandBps: demand},
			},
			took: 0.75, outcome: RenewRejoined,
			want: with(owner, 2, nil),
		},
		{
			// The rejoin runs with the placement Renew was handed.
			name: "renew-nack-rejoin-placed", start: owner, run: renew(place),
			script: []step{
				{reply: mac.RenewNackMsg{NodeID: id}, took: 0.25},
				{reply: reject, took: 0.5},
				{reply: mac.AckMsg{NodeID: id}, took: 1},
			},
			reqs: []any{
				mac.RenewMsg{NodeID: id, Seq: 5},
				mac.JoinRequest{NodeID: id, Seq: 6, DemandBps: demand},
				mac.ShareConfirmMsg{NodeID: id, Seq: 7, ShareHz: 24.2e9, WidthHz: width, Harmonic: 3},
			},
			took: 1.75, outcome: RenewRejoined,
			want: with(sharer, 3, func(s *Session) { s.Assignment.CenterHz, s.Harmonic = 24.2e9, 3 }),
		},
		{
			name: "renew-nack-rejoin-fails", start: owner, run: renew(nil),
			script: []step{{reply: mac.RenewNackMsg{NodeID: id}, took: 0.25}, {took: 0.5, err: ErrExhausted}},
			reqs: []any{
				mac.RenewMsg{NodeID: id, Seq: 5},
				mac.JoinRequest{NodeID: id, Seq: 6, DemandBps: demand},
			},
			took: 0.75, outcome: RenewLost, err: ErrJoinFailed,
			want: with(owner, 2, func(s *Session) { s.Joined = false }),
		},
		{
			name: "renew-no-reply", start: owner, run: renew(nil),
			script: []step{{took: 0.5, err: ErrExhausted}},
			reqs:   []any{mac.RenewMsg{NodeID: id, Seq: 5}},
			took:   0.5, outcome: RenewFailed, err: ErrExhausted,
			want: with(owner, 1, nil),
		},
		{
			name: "renew-unexpected", start: owner, run: renew(nil),
			script: []step{{reply: mac.AckMsg{NodeID: id}, took: 0.25}},
			reqs:   []any{mac.RenewMsg{NodeID: id, Seq: 5}},
			took:   0.25, outcome: RenewFailed, err: errUnexpectedReply,
			want: with(owner, 1, nil),
		},
		{
			name: "release-ack", start: sharer, run: release,
			script: []step{{reply: mac.AckMsg{NodeID: id}, took: 0.25}},
			reqs:   []any{mac.ReleaseMsg{NodeID: id, Seq: 5}},
			took:   0.25,
			want:   with(fresh, 5, nil),
		},
		{
			name: "release-non-ack", start: sharer, run: release,
			script: []step{{reply: mac.RenewNackMsg{NodeID: id}, took: 0.25}},
			reqs:   []any{mac.ReleaseMsg{NodeID: id, Seq: 5}},
			took:   0.25, err: errUnexpectedReply,
			want: with(sharer, 1, nil),
		},
		{
			name: "release-error", start: sharer, run: release,
			script: []step{{took: 0.5, err: errDown}},
			reqs:   []any{mac.ReleaseMsg{NodeID: id, Seq: 5}},
			took:   0.5, err: errDown,
			want: with(sharer, 1, nil),
		},
		{
			name: "promote", start: sharer,
			run: func(s *Session, _ Exchange) (RenewOutcome, float64, error) {
				s.ApplyPromote(mac.PromoteMsg{NodeID: id, CenterHz: 24.05e9, WidthHz: 75e6, FSKOffsetHz: 3.75e6})
				return 0, 0, nil
			},
			want: with(owner, 0, nil),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := &scripted{t: t, steps: tc.script}
			s := tc.start
			outcome, took, err := tc.run(&s, sc.exchange)
			if outcome != tc.outcome || took != tc.took {
				t.Errorf("outcome %d took %g, want %d %g", outcome, took, tc.outcome, tc.took)
			}
			if (tc.err == nil) != (err == nil) || !errors.Is(err, tc.err) {
				t.Errorf("err = %v, want %v", err, tc.err)
			}
			if !reflect.DeepEqual(sc.reqs, tc.reqs) {
				t.Errorf("requests\n got %+v\nwant %+v", sc.reqs, tc.reqs)
			}
			if s != tc.want {
				t.Errorf("state\n got %+v\nwant %+v", s, tc.want)
			}
		})
	}
}
