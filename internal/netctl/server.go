package netctl

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmx/internal/mac"
)

// queueLen bounds the daemon's one ingress queue. A frame arriving at a
// full queue is shed with an explicit Reject sentinel instead of dropped
// silently, so overloaded clients back off immediately rather than burn
// their reply timeout.
const queueLen = 4096

// ServerConfig tunes the daemon.
type ServerConfig struct {
	// Batch caps how many frames move per syscall (recvmmsg/sendmmsg
	// on Linux) and per controller-mutex acquisition. 0 picks the
	// default (32); 1 disables amortization — the single-message
	// reference path the batching determinism test compares against.
	Batch int
	// ExpireEveryS is the lease-expiry sweep period; <= 0 disables the
	// periodic sweep (tests then drive ExpireNow by hand).
	ExpireEveryS float64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// ServerStats is a snapshot of the daemon's counters.
type ServerStats struct {
	// Handled counts requests answered by the controller.
	Handled uint64
	// Shed counts frames rejected because the ingress queue was full.
	Shed uint64
	// Malformed counts frames the codec refused (truncated — including
	// kernel-truncated datagrams longer than the read buffer —
	// oversized, unknown type, bad fields). Dropped silently, as an AP
	// cannot address a reply for a frame it cannot parse.
	Malformed uint64
	// Promotes counts unsolicited PromoteMsg pushes delivered.
	Promotes uint64
	// Expired counts leases reclaimed by the TTL sweep.
	Expired uint64
}

// errForeignAddr reports a non-UDP address reaching a batched UDP
// writer — impossible unless the addressing above it regresses.
var errForeignAddr = errors.New("netctl: foreign address on batched UDP socket")

// Server serves a mac.Controller over a datagram socket, speaking the
// existing little-endian wire format unchanged. The controller is one
// single-threaded state machine — its books are the ground truth the
// whole network converges on — so the daemon has one of everything: a
// reader goroutine pulls whole batches off the socket (recvmmsg on
// Linux, one datagram per call elsewhere) into pooled frames and feeds
// one bounded queue; one worker drains a batch from it, handles all of
// it under a single controller-mutex acquisition, and writes the
// replies and the pushes the batch caused in one batched write, replies
// first. One FIFO keeps every node's requests in arrival order, and
// every frame to a node leaves in the order the controller produced it.
// The lock also guards the last-seen-address table the pushes are
// addressed from. The steady-state path recycles every buffer it
// touches: zero heap allocations per handled frame. Lease expiry runs on
// a swappable Clock, on the worker's own loop. Stop drains: the reader
// quiesces first, then every queued frame is handled and its reply
// flushed before the socket closes.
type Server struct {
	cfg   ServerConfig
	clock Clock

	mu    sync.Mutex // guards ctrl — the single-threaded state machine — and addrs
	ctrl  *mac.Controller
	addrs map[uint32]net.Addr // last-seen address of every leaseholder

	conn       net.PacketConn
	queue      chan *frame
	readerDone chan struct{}
	workerDone chan struct{}
	closing    atomic.Bool
	started    bool

	handled, shed, malformed, promotes, expired atomic.Uint64
}

// NewServer wraps a controller for serving. clock drives lease expiry;
// pass NewRealClock() in production, a *FakeClock in tests.
func NewServer(ctrl *mac.Controller, clock Clock, cfg ServerConfig) *Server {
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	return &Server{
		cfg:   cfg,
		clock: clock,
		ctrl:  ctrl,
		addrs: make(map[uint32]net.Addr),
	}
}

// Serve starts the reader and the worker on conn and returns
// immediately; Stop drains and shuts them down. Serve may be called
// once per Server.
func (s *Server) Serve(conn net.PacketConn) {
	s.conn = conn
	s.started = true
	bio := newBatchIO(conn)
	s.queue = make(chan *frame, queueLen)
	s.readerDone = make(chan struct{})
	s.workerDone = make(chan struct{})
	go s.workerLoop(bio.writer(s.cfg.Batch))
	go s.readLoop(bio.reader(s.cfg.Batch))
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) readLoop(r batchReader) {
	defer close(s.readerDone)
	fs := make([]*frame, s.cfg.Batch)
	var shedBuf []byte
	for {
		n, err := r.readBatch(fs)
		if err != nil {
			if s.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			s.logf("read: %v", err)
			continue
		}
		for i := 0; i < n; i++ {
			f := fs[i]
			fs[i] = nil
			if f.n > mac.MaxFrameLen || f.addr == nil {
				// Oversized covers kernel truncation too: the read
				// buffer is MaxFrameLen+1, so a clipped datagram still
				// reads as too long instead of slipping past the check.
				s.malformed.Add(1)
				putFrame(f)
				continue
			}
			_, node, seq, ok := mac.PeekHeader(f.bytes())
			if !ok {
				s.malformed.Add(1)
				putFrame(f)
				continue
			}
			select {
			case s.queue <- f:
			default:
				// Bounded ingress: shed explicitly. The sentinel rides
				// the normal reply match, so the client sees "AP busy"
				// now instead of a timeout later.
				s.shed.Add(1)
				shedBuf = ShedReply(node, seq).AppendTo(shedBuf[:0])
				s.conn.WriteTo(shedBuf, wireAddr(f.addr)) //nolint:errcheck // shed reply is best-effort
				putFrame(f)
			}
		}
	}
}

// workerLoop drains the queue a batch at a time and runs the lease
// sweep between batches. It exits once Stop has closed the queue and
// every frame queued before that is handled.
func (s *Server) workerLoop(w batchWriter) {
	defer close(s.workerDone)
	var sweep <-chan time.Time
	if s.cfg.ExpireEveryS > 0 {
		t := time.NewTicker(secondsToDuration(s.cfg.ExpireEveryS))
		defer t.Stop()
		sweep = t.C
	}
	batch := make([]*frame, 0, s.cfg.Batch)
	out := make([]*frame, 0, s.cfg.Batch)
	for {
		select {
		case f, ok := <-s.queue:
			if !ok {
				return
			}
			batch = append(batch[:0], f)
		fill:
			for len(batch) < cap(batch) {
				select {
				case more, open := <-s.queue:
					if !open {
						break fill // handle what we have; next recv exits
					}
					batch = append(batch, more)
				default:
					break fill
				}
			}
			out = s.handleBatch(w, batch, out)
		case <-sweep:
			s.ExpireNow()
		}
	}
}

// handleBatch answers one pulled batch under a single mutex acquisition:
// the controller's replies, the address bookkeeping they imply, and one
// batched write of the replies followed by the pushes they caused.
// Returns the out scratch slice for reuse.
func (s *Server) handleBatch(w batchWriter, batch, out []*frame) []*frame {
	var handled, malformed, promotes uint64
	out = out[:0]
	s.mu.Lock()
	now := s.clock.NowS()
	for _, f := range batch {
		_, node, _, _ := mac.PeekHeader(f.bytes())
		// The reply encodes into the request's own buffer:
		// HandleAtAppend fully decodes raw before appending to dst, so
		// aliasing dst over raw is safe and keeps the path copy-free.
		reply, err := s.ctrl.HandleAtAppend(f.buf[:0], f.bytes(), now)
		if err != nil {
			malformed++
			putFrame(f)
			continue
		}
		f.n = len(reply)
		handled++
		// The address table lives and dies with the lease: it is only
		// ever read to address a promote push, and only leaseholders get
		// those. A reply that leaves the sender without one (release
		// ack, renew nack, unconfirmed reject) evicts instead of
		// interning, so strangers cannot grow the table. The reply still
		// goes to the frame's own source addr. Addresses are interned
		// (one pointer per peer), so the steady-state case — same node,
		// same address — is a read plus an equality check, not a map
		// write per frame.
		if !s.ctrl.HoldsLease(node) {
			delete(s.addrs, node)
		} else if prev, ok := s.addrs[node]; !ok || prev != f.addr {
			s.addrs[node] = f.addr
		}
		out = append(out, f)
	}
	for _, note := range s.ctrl.TakeNotifications() {
		if addr := s.pushAddr(note); addr != nil {
			f := getFrame()
			f.set(note, addr)
			out = append(out, f)
			promotes++
		}
	}
	// The write stays under the lock so that a push from a concurrent
	// ExpireNow cannot overtake a reply the controller produced before it.
	if len(out) > 0 {
		w.writeBatch(out) //nolint:errcheck // client retry covers a lost reply
	}
	s.mu.Unlock()
	for _, f := range out {
		putFrame(f)
	}
	if handled > 0 {
		s.handled.Add(handled)
	}
	if malformed > 0 {
		s.malformed.Add(malformed)
	}
	if promotes > 0 {
		s.promotes.Add(promotes)
	}
	return out[:0]
}

// pushAddr returns where an unsolicited controller→node frame
// (PromoteMsg) goes: its target's last-seen address, or nil for a node
// never heard from or already evicted — its next renew ack carries the
// same books. The caller holds s.mu.
func (s *Server) pushAddr(note []byte) net.Addr {
	_, node, _, ok := mac.PeekHeader(note)
	if !ok {
		return nil
	}
	return s.addrs[node]
}

// ExpireNow runs one lease-expiry sweep at the server clock's current
// time, forgets the expired nodes' addresses, sends the resulting
// promotion pushes, and returns the IDs expired. The worker calls it
// every ExpireEveryS; tests with a FakeClock call it directly.
func (s *Server) ExpireNow() []uint32 {
	s.mu.Lock()
	expired := s.ctrl.ExpireLeases(s.clock.NowS())
	for _, node := range expired {
		delete(s.addrs, node)
	}
	var promotes uint64
	for _, note := range s.ctrl.TakeNotifications() {
		if addr := s.pushAddr(note); addr != nil {
			s.conn.WriteTo(note, wireAddr(addr)) //nolint:errcheck // a lost push is repaired by the next renew ack
			promotes++
		}
	}
	s.mu.Unlock()
	s.promotes.Add(promotes)
	if n := len(expired); n > 0 {
		s.expired.Add(uint64(n))
		s.logf("expired %d leases", n)
	}
	return expired
}

// Stop drains and shuts the daemon down: the reader stops accepting,
// every already-queued frame is handled and its reply flushed, and the
// socket closes. Safe to call once.
func (s *Server) Stop() {
	if !s.started {
		return
	}
	s.closing.Store(true)
	// Wake the blocked reader; it observes closing and exits.
	s.conn.SetReadDeadline(time.Now()) //nolint:errcheck // mem conns never fail this
	<-s.readerDone
	close(s.queue)
	<-s.workerDone // drain-and-flush
	s.conn.Close() //nolint:errcheck // shutdown path
}

// Stats snapshots the daemon's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Handled:   s.handled.Load(),
		Shed:      s.shed.Load(),
		Malformed: s.malformed.Load(),
		Promotes:  s.promotes.Load(),
		Expired:   s.expired.Load(),
	}
}

// AddrCount returns how many nodes currently have a last-seen address.
// The table follows the leases: a reply that leaves its sender holding
// one interns the address, one that does not, and expiry, evict it.
func (s *Server) AddrCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.addrs)
}

// LeaseCount returns the number of live leases on the controller.
func (s *Server) LeaseCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.LeaseCount()
}

// RecordCount returns the number of node IDs the controller remembers
// anything about (mac.Controller.RecordCount).
func (s *Server) RecordCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.RecordCount()
}

// Audit cross-checks the controller's books — the daemon-side
// ValidateSpectrum discipline. nil means the books are consistent.
func (s *Server) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.AuditBooks()
}
