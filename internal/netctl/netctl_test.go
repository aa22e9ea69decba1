package netctl

import (
	"math"
	"testing"
	"time"

	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
)

// testRetrier is a fast real-time retry schedule so tests spend
// milliseconds, not the production seconds, per lost frame.
func testRetrier() Retrier {
	return Retrier{
		TimeoutS:    0.05,
		MaxAttempts: 10,
		Backoff:     faults.Backoff{BaseS: 0.005, MaxS: 0.05, Factor: 2, Jitter: 0.25},
		Sleep:       func(s float64) { time.Sleep(secondsToDuration(s)) },
	}
}

// startServer brings up a Server over a fresh MemNet.
func startServer(side *faults.SideChannel, clock Clock, ttlS float64) (*MemNet, *Server) {
	mn := NewMemNet(side)
	ctrl := mac.NewController(mac.ISM24GHz())
	ctrl.LeaseTTL = ttlS
	srv := NewServer(ctrl, clock, ServerConfig{})
	srv.Serve(mn.ServerConn())
	return mn, srv
}

func newTestClient(mn *MemNet, id uint32, demand float64) *Client {
	c := NewClient(id, demand, mn.Client(id), 0xC0FFEE)
	c.Retry = testRetrier()
	return c
}

// waitFor polls cond; the server pipeline is asynchronous, so counter
// assertions need a settle window.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestLifecycleOverMemNet drives the full join/renew/release protocol —
// including the SDM share path once FDM spectrum runs out — through the
// real Server pipeline on a perfect in-memory link.
func TestLifecycleOverMemNet(t *testing.T) {
	mn, srv := startServer(nil, NewRealClock(), 0)
	defer srv.Stop()

	// 60 Mb/s → 75 MHz channels: three fill the 250 MHz band, the
	// fourth is rejected into SDM sharing.
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = newTestClient(mn, uint32(i+1), 60e6)
		if _, err := clients[i].Join(); err != nil {
			t.Fatalf("client %d join: %v", i+1, err)
		}
	}
	for i, c := range clients[:3] {
		if c.Shared {
			t.Fatalf("client %d: FDM grant expected, got shared", i+1)
		}
	}
	if !clients[3].Shared {
		t.Fatalf("client 4: expected SDM share after band exhaustion")
	}
	if n := srv.LeaseCount(); n != 4 {
		t.Fatalf("lease count = %d, want 4", n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatalf("books inconsistent mid-run: %v", err)
	}
	for i, c := range clients {
		out, _, err := c.Renew()
		if err != nil || out != RenewOK {
			t.Fatalf("client %d renew: outcome %v err %v", i+1, out, err)
		}
	}
	for i, c := range clients {
		if _, err := c.Release(); err != nil {
			t.Fatalf("client %d release: %v", i+1, err)
		}
	}
	if n := srv.LeaseCount(); n != 0 {
		t.Fatalf("leaked %d leases after release", n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatalf("books inconsistent after drain: %v", err)
	}
	if st := srv.Stats(); st.Handled == 0 {
		t.Fatalf("server handled nothing: %+v", st)
	}
}

// TestServerDropsMalformedFrames feeds the daemon frames a hostile or
// garbled peer could send: unroutable runts and a routable frame with a
// poisoned field (NaN demand). Both must be counted and dropped without
// a reply and without disturbing the books.
func TestServerDropsMalformedFrames(t *testing.T) {
	mn, srv := startServer(nil, NewRealClock(), 0)
	defer srv.Stop()

	raw := mn.Client(99)
	if err := raw.Send([]byte{0xFF, 1, 2, 3, 4, 5}); err != nil {
		t.Fatalf("send runt: %v", err)
	}
	poisoned, err := mac.Marshal(mac.JoinRequest{NodeID: 99, Seq: 1, DemandBps: math.NaN()})
	if err != nil {
		t.Fatalf("marshal poisoned join: %v", err)
	}
	if err := raw.Send(poisoned); err != nil {
		t.Fatalf("send poisoned: %v", err)
	}
	waitFor(t, func() bool { return srv.Stats().Malformed >= 2 },
		"malformed frames not counted")
	if frame, ok := raw.Recv(0.05); ok {
		t.Fatalf("malformed frame drew a reply: %v", frame)
	}
	if n := srv.LeaseCount(); n != 0 {
		t.Fatalf("poisoned join planted a lease: %d", n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatalf("books disturbed by malformed input: %v", err)
	}
}

// scriptedTransport answers the first sheds requests with the overload
// sentinel, then grants — the daemon-under-pressure behavior, scripted
// so the client's shed handling is observable deterministically.
type scriptedTransport struct {
	sheds int
	in    chan []byte
}

func (s *scriptedTransport) Send(frame []byte) error {
	msg, err := mac.Unmarshal(frame)
	if err != nil {
		return err
	}
	node, seq, _ := mac.RequestIdent(msg)
	var reply any
	if s.sheds > 0 {
		s.sheds--
		reply = ShedReply(node, seq)
	} else {
		reply = mac.AssignmentMsg{NodeID: node, Seq: seq, CenterHz: 24.1e9, WidthHz: 75e6, FSKOffsetHz: 3.75e6}
	}
	raw, err := mac.Marshal(reply)
	if err != nil {
		return err
	}
	s.in <- raw
	return nil
}

func (s *scriptedTransport) Recv(timeoutS float64) ([]byte, bool) {
	tm := time.NewTimer(secondsToDuration(timeoutS))
	defer tm.Stop()
	select {
	case f := <-s.in:
		return f, true
	case <-tm.C:
		return nil, false
	}
}

func (s *scriptedTransport) Close() error { return nil }

// TestClientBacksOffOnShed checks that a shed sentinel ends the attempt
// immediately (no timeout burn), is counted, and that the client's
// backoff carries it to the eventual grant.
func TestClientBacksOffOnShed(t *testing.T) {
	tr := &scriptedTransport{sheds: 2, in: make(chan []byte, 4)}
	c := NewClient(7, 60e6, tr, 1)
	c.Retry = testRetrier()
	start := time.Now()
	if _, err := c.Join(); err != nil {
		t.Fatalf("join through sheds: %v", err)
	}
	if c.Sheds != 2 {
		t.Fatalf("sheds counted = %d, want 2", c.Sheds)
	}
	if c.Shared {
		t.Fatalf("shed sentinel misread as an SDM reject")
	}
	// Two shed attempts cost two backoff draws but not two full reply
	// timeouts; well under the three-timeout budget a silent drop would
	// have burned.
	if took := time.Since(start).Seconds(); took > 2*c.Retry.TimeoutS {
		t.Fatalf("shed handling burned timeouts: %.3fs", took)
	}
}

// TestLeaseExpiryOnFakeClock joins, goes silent past the TTL on a
// hand-advanced clock, and verifies the sweep reclaims the lease and
// the next keepalive rejoins through the full handshake.
func TestLeaseExpiryOnFakeClock(t *testing.T) {
	clock := &FakeClock{}
	mn, srv := startServer(nil, clock, 1.0)
	defer srv.Stop()

	c := newTestClient(mn, 1, 60e6)
	if _, err := c.Join(); err != nil {
		t.Fatalf("join: %v", err)
	}
	clock.Advance(0.5)
	if expired := srv.ExpireNow(); len(expired) != 0 {
		t.Fatalf("lease expired inside TTL: %v", expired)
	}
	clock.Advance(1.0)
	expired := srv.ExpireNow()
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expiry sweep = %v, want [1]", expired)
	}
	if n := srv.LeaseCount(); n != 0 {
		t.Fatalf("lease survived expiry: %d", n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatalf("books inconsistent after expiry: %v", err)
	}
	out, _, err := c.Renew()
	if err != nil || out != RenewRejoined {
		t.Fatalf("renew after expiry: outcome %v err %v, want RenewRejoined", out, err)
	}
	if srv.LeaseCount() != 1 {
		t.Fatalf("rejoin bookkeeping: server leases=%d after the rejoin", srv.LeaseCount())
	}
}

// TestPromotePushReachesSharer releases an FDM owner while a sharer
// camps on its channel and checks the unsolicited PromoteMsg (or the
// renew-ack resync backstop, if the push loses the race) moves the
// sharer to exclusive ownership — with the server's books agreeing.
func TestPromotePushReachesSharer(t *testing.T) {
	mn, srv := startServer(nil, NewRealClock(), 0)
	defer srv.Stop()

	owners := make([]*Client, 3)
	for i := range owners {
		owners[i] = newTestClient(mn, uint32(i+1), 60e6)
		if _, err := owners[i].Join(); err != nil {
			t.Fatalf("owner %d join: %v", i+1, err)
		}
	}
	sharer := newTestClient(mn, 4, 60e6)
	if _, err := sharer.Join(); err != nil {
		t.Fatalf("sharer join: %v", err)
	}
	if !sharer.Shared {
		t.Fatalf("client 4 got an FDM grant; band sizing assumption broken")
	}
	var host *Client
	for _, o := range owners {
		if o.Assignment.CenterHz == sharer.Assignment.CenterHz {
			host = o
		}
	}
	if host == nil {
		t.Fatalf("no owner on the sharer's host channel %v", sharer.Assignment.CenterHz)
	}
	if _, err := host.Release(); err != nil {
		t.Fatalf("host release: %v", err)
	}
	waitFor(t, func() bool { return srv.Stats().Promotes >= 1 },
		"promote push never delivered")
	out, _, err := sharer.Renew()
	if err != nil {
		t.Fatalf("sharer renew after promote: %v", err)
	}
	if out != RenewOK && out != RenewResynced {
		t.Fatalf("sharer renew outcome %v after promotion", out)
	}
	if sharer.Shared {
		t.Fatalf("sharer still marked shared after promotion")
	}
	if sharer.Promotes == 0 && out != RenewResynced {
		t.Fatalf("promotion reached the client via neither push nor resync")
	}
	if err := srv.Audit(); err != nil {
		t.Fatalf("books inconsistent after promotion: %v", err)
	}
}

// TestStormConvergesOnLossyLink runs the shared storm harness through
// the real server over a seeded lossy link — drops, dups, truncations
// and delays both ways — and requires full convergence: every client
// joined, every client released, books clean, zero leases left.
func TestStormConvergesOnLossyLink(t *testing.T) {
	side := faults.Lossy(0x51C2, 0.20, 0.10, 0.05)
	side.DelayProb, side.DelayMeanS = 0.1, 0.002
	mn, srv := startServer(side, NewRealClock(), 0)
	defer srv.Stop()

	res := RunStorm(StormConfig{
		Clients:       48,
		DemandBps:     6e6, // 7.5 MHz channels: 33 FDM grants, the rest share
		Renews:        3,
		RenewEveryS:   0.005,
		RampS:         0.02,
		JoinDeadlineS: 10,
		Seed:          7,
		Retry:         testRetrier(),
		NewTransport:  func(id uint32) (Transport, error) { return mn.Client(id), nil },
	})
	if !res.Converged() {
		t.Fatalf("storm did not converge: %+v", res)
	}
	if res.Joined != 48 {
		t.Fatalf("joined %d/48", res.Joined)
	}
	if n := srv.LeaseCount(); n != 0 {
		t.Fatalf("leaked %d leases", n)
	}
	if err := srv.Audit(); err != nil {
		t.Fatalf("books inconsistent after storm: %v", err)
	}
	if res.Join.N == 0 || res.Join.P99 < res.Join.P50 {
		t.Fatalf("join percentiles malformed: %+v", res.Join)
	}
	drops, _, _ := side.Drops, side.Dups, side.Truncs
	if drops == 0 {
		t.Fatalf("lossy link dropped nothing; fault injection inert")
	}
}

// TestStormRidesOutDaemonRestart stops the daemon mid-storm and brings
// up a fresh one — wiped books, same socket — over the same network.
// The fleet must ride it out: exchanges in flight retry through the
// outage, renews against the new daemon nack into rejoins, and the run
// still converges with clean books and zero leases.
func TestStormRidesOutDaemonRestart(t *testing.T) {
	mn := NewMemNet(nil)
	ctrl := mac.NewController(mac.ISM24GHz())
	srv := NewServer(ctrl, NewRealClock(), ServerConfig{})
	srv.Serve(mn.ServerConn())

	done := make(chan StormResult, 1)
	go func() {
		done <- RunStorm(StormConfig{
			Clients:       24,
			DemandBps:     8e6,
			Renews:        6,
			RenewEveryS:   0.02,
			RampS:         0.01,
			JoinDeadlineS: 10,
			Seed:          99,
			Retry:         testRetrier(),
			NewTransport:  func(id uint32) (Transport, error) { return mn.Client(id), nil },
		})
	}()

	time.Sleep(40 * time.Millisecond)
	srv.Stop() // daemon killed mid-storm
	time.Sleep(30 * time.Millisecond)
	ctrl2 := mac.NewController(mac.ISM24GHz())
	srv2 := NewServer(ctrl2, NewRealClock(), ServerConfig{})
	srv2.Serve(mn.ServerConn()) // restarted daemon: fresh books, same socket
	defer srv2.Stop()

	res := <-done
	if !res.Converged() {
		t.Fatalf("storm did not converge across restart: %+v", res)
	}
	if res.Rejoins == 0 {
		t.Fatalf("restart drill bit nobody (rejoins=0): %+v", res)
	}
	if n := srv2.LeaseCount(); n != 0 {
		t.Fatalf("leaked %d leases on the restarted daemon", n)
	}
	if err := srv2.Audit(); err != nil {
		t.Fatalf("restarted daemon's books inconsistent: %v", err)
	}
}

// TestRetrierAccounting pins the state machine's arithmetic: a failing
// exchange charges TimeoutS plus exactly one backoff draw per attempt
// (the bit-reproducibility contract the simulator's golden run relies
// on), and a mid-exchange success returns the accumulated elapsed time.
func TestRetrierAccounting(t *testing.T) {
	r := Retrier{
		TimeoutS:    0.02,
		MaxAttempts: 5,
		Backoff:     faults.Backoff{BaseS: 0.01, MaxS: 0.04, Factor: 2, Jitter: 0},
	}
	calls := 0
	_, elapsed, err := r.Do(nil, func(try int, elapsedS float64) (any, float64, bool) {
		if try != calls {
			t.Fatalf("try index %d, want %d", try, calls)
		}
		calls++
		return nil, 0.02, false
	})
	if err != ErrExhausted {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if calls != 5 {
		t.Fatalf("attempts = %d, want 5", calls)
	}
	want := 0.0
	for try := 0; try < 5; try++ {
		want += r.TimeoutS + r.Backoff.Delay(try, nil)
	}
	if math.Abs(elapsed-want) > 1e-12 {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}

	rng := stats.NewRNG(3)
	reply, elapsed2, err := r.Do(rng, func(try int, _ float64) (any, float64, bool) {
		if try == 2 {
			return "granted", 0.005, true
		}
		return nil, 0.02, false
	})
	if err != nil || reply != "granted" {
		t.Fatalf("reply %v err %v", reply, err)
	}
	wantMin := 2*r.TimeoutS + 0.005 // two charged timeouts + the winning attempt
	if elapsed2 < wantMin {
		t.Fatalf("elapsed = %v, want >= %v", elapsed2, wantMin)
	}
}

// TestEndpointTimerReuse: the endpoint's one timer outlives the receive
// it was armed for. A frame that beats the timer leaves it to expire
// unreceived; the next timed receive must not see that stale expiry as
// its own timeout.
func TestEndpointTimerReuse(t *testing.T) {
	mn := NewMemNet(nil)
	tr := mn.Client(1)
	defer tr.Close() //nolint:errcheck // test teardown
	in := mn.subs[1]
	mn.deliver([]byte{1}, in, nil)
	if f, ok := tr.Recv(0.001); !ok || f[0] != 1 {
		t.Fatalf("queued frame not received (ok=%v)", ok)
	}
	time.Sleep(5 * time.Millisecond) // the timer expires with nobody receiving
	time.AfterFunc(20*time.Millisecond, func() { mn.deliver([]byte{2}, in, nil) })
	if f, ok := tr.Recv(1); !ok || f[0] != 2 {
		t.Fatalf("a stale expiry cut the next receive short (ok=%v)", ok)
	}
}
