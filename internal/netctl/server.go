package netctl

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmx/internal/mac"
)

// ServerConfig sizes the daemon's ingest machinery.
type ServerConfig struct {
	// Readers is the number of goroutines draining the socket
	// (default 1; loopback storms saturate a single reader last).
	Readers int
	// Workers is the number of shard workers. A node ID always hashes
	// to the same shard, so frames from one node are handled strictly
	// in arrival order — the property the controller's seq/dup-cache
	// idempotency semantics assume (default 4).
	Workers int
	// QueueLen bounds each shard's ingress queue. A frame arriving at
	// a full shard is shed with an explicit Reject sentinel instead of
	// dropped silently, so overloaded clients back off immediately
	// rather than burn their reply timeout (default 1024).
	QueueLen int
	// Batch caps how many frames move per syscall (recvmmsg/sendmmsg
	// on Linux) and per controller-mutex acquisition. 0 picks the
	// default (32); 1 disables amortization — the single-message
	// reference path the batching determinism test compares against.
	Batch int
	// ExpireEveryS is the lease-expiry sweep period; <= 0 disables the
	// background sweeper (tests then drive ExpireNow by hand).
	ExpireEveryS float64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *ServerConfig) fillDefaults() {
	if c.Readers <= 0 {
		c.Readers = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
}

// ServerStats is a snapshot of the daemon's counters.
type ServerStats struct {
	// Handled counts requests answered by the controller.
	Handled uint64
	// Shed counts frames rejected because their shard queue was full.
	Shed uint64
	// Malformed counts frames the codec refused (truncated — including
	// kernel-truncated datagrams longer than the read buffer —
	// oversized, unknown type, bad fields). Dropped silently, as an AP
	// cannot address a reply for a frame it cannot parse.
	Malformed uint64
	// Promotes counts unsolicited PromoteMsg pushes delivered.
	Promotes uint64
	// Expired counts leases reclaimed by the TTL sweeper.
	Expired uint64
}

// Shard queue item kinds. itemFrame/itemPush/itemEvict arrive on the
// queue; the remaining values are scratch states a worker writes into
// its private batch while processing (handled → reply out, handled and
// the sender holds no lease → reply out + address evicted, refused →
// drop).
const (
	itemFrame uint8 = iota
	itemPush
	itemEvict
	itemReply
	itemReplyEvict
	itemDrop
)

// shardItem is one unit of shard work: an ingress frame to handle, a
// promotion push to deliver (routed here because this shard owns the
// target node's address), or an address eviction after lease expiry.
type shardItem struct {
	node uint32
	f    *frame
	kind uint8
}

// errForeignAddr reports a non-UDP address reaching a batched UDP
// writer — impossible unless the routing above it regresses.
var errForeignAddr = errors.New("netctl: foreign address on batched UDP socket")

// Server serves a mac.Controller over a datagram socket, speaking the
// existing little-endian wire format unchanged. The architecture is a
// small pipeline built for syscall and lock amortization: reader
// goroutines pull whole batches off the socket (recvmmsg on Linux, one
// datagram per call elsewhere) into pooled frames and route each frame
// by node ID onto one of Workers bounded shard queues; each shard
// worker drains a batch from its queue and handles all of it under a
// single controller-mutex acquisition (the controller is deliberately a
// single-threaded state machine — its books are the ground truth the
// whole network converges on), then flushes the replies with one
// batched write after unlocking. Each worker privately owns the
// last-seen-address table for its shard's leaseholders — no lock — and
// promotion pushes are routed through the owning shard's queue. The
// steady-state path recycles every buffer it touches: zero heap
// allocations per handled frame. Lease expiry runs on a swappable
// Clock. Stop drains: readers quiesce first, then every queued frame
// is handled and its reply flushed before the socket closes.
type Server struct {
	cfg   ServerConfig
	clock Clock

	mu   sync.Mutex // guards ctrl — the single-threaded state machine
	ctrl *mac.Controller

	conn      net.PacketConn
	bio       batchIO
	shards    []chan shardItem
	readersWG sync.WaitGroup
	workersWG sync.WaitGroup
	sweeper   chan struct{}
	sweeperWG sync.WaitGroup
	closing   atomic.Bool
	started   bool

	addrCount                                   atomic.Int64
	handled, shed, malformed, promotes, expired atomic.Uint64
}

// NewServer wraps a controller for serving. clock drives lease expiry;
// pass NewRealClock() in production, a *FakeClock in tests.
func NewServer(ctrl *mac.Controller, clock Clock, cfg ServerConfig) *Server {
	cfg.fillDefaults()
	return &Server{
		cfg:   cfg,
		clock: clock,
		ctrl:  ctrl,
	}
}

// Serve starts the pipeline on conn and returns immediately; Stop
// drains and shuts it down. Serve may be called once per Server.
func (s *Server) Serve(conn net.PacketConn) {
	s.conn = conn
	s.started = true
	s.bio = newBatchIO(conn)
	s.shards = make([]chan shardItem, s.cfg.Workers)
	for i := range s.shards {
		s.shards[i] = make(chan shardItem, s.cfg.QueueLen)
	}
	s.workersWG.Add(len(s.shards))
	for _, shard := range s.shards {
		go s.workerLoop(shard)
	}
	s.readersWG.Add(s.cfg.Readers)
	for i := 0; i < s.cfg.Readers; i++ {
		go s.readLoop()
	}
	if s.cfg.ExpireEveryS > 0 {
		s.sweeper = make(chan struct{})
		s.sweeperWG.Add(1)
		go s.sweepLoop()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) readLoop() {
	defer s.readersWG.Done()
	r := s.bio.reader(s.cfg.Batch)
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
			shard := s.shards[int(node)%len(s.shards)]
			select {
			case shard <- shardItem{node: node, f: f, kind: itemFrame}:
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

// workerLoop owns one shard: its queue, and the last-seen-address map
// for every leaseholder that hashes here. Batches amortize the controller
// mutex — one Lock/Unlock handles up to Batch frames — and the replies
// leave in one batched write after the unlock.
func (s *Server) workerLoop(shard chan shardItem) {
	defer s.workersWG.Done()
	w := s.bio.writer(s.cfg.Batch)
	addrs := make(map[uint32]net.Addr)
	batch := make([]shardItem, 0, s.cfg.Batch)
	replies := make([]*frame, 0, s.cfg.Batch)
	for {
		it, ok := <-shard
		if !ok {
			return
		}
		batch = append(batch[:0], it)
	fill:
		for len(batch) < cap(batch) {
			select {
			case more, open := <-shard:
				if !open {
					break fill // process what we have; next recv exits
				}
				batch = append(batch, more)
			default:
				break fill
			}
		}
		replies = s.processBatch(w, addrs, batch, replies)
	}
}

// processBatch handles one pulled batch: controller work under a single
// mutex acquisition, then address bookkeeping, push routing, and one
// batched reply write outside it. Returns the reply scratch slice for
// reuse.
func (s *Server) processBatch(w batchWriter, addrs map[uint32]net.Addr, batch []shardItem, replies []*frame) []*frame {
	now := s.clock.NowS()
	var notes [][]byte
	s.mu.Lock()
	for i := range batch {
		it := &batch[i]
		if it.kind != itemFrame {
			continue
		}
		f := it.f
		// The reply encodes into the request's own buffer:
		// HandleAtAppend fully decodes raw before appending to dst, so
		// aliasing dst over raw is safe and keeps the path copy-free.
		out, err := s.ctrl.HandleAtAppend(f.buf[:0], f.bytes(), now)
		if err != nil {
			it.kind = itemDrop
			continue
		}
		f.n = len(out)
		// The address table lives and dies with the lease: it is only
		// ever read to address a promote push, and only leaseholders get
		// those. A reply that leaves the sender without one (release
		// ack, renew nack, unconfirmed reject) evicts instead of
		// interning, so strangers cannot grow the table.
		if s.ctrl.HoldsLease(it.node) {
			it.kind = itemReply
		} else {
			it.kind = itemReplyEvict
		}
	}
	notes = s.ctrl.TakeNotifications()
	s.mu.Unlock()

	var handled, malformed, promotes uint64
	replies = replies[:0]
	for i := range batch {
		it := &batch[i]
		switch it.kind {
		case itemReply:
			handled++
			// Addresses are interned (one pointer per peer), so the
			// steady-state case — same node, same address — is a read
			// plus an equality check, not a map write per frame.
			if prev, ok := addrs[it.node]; !ok || prev != it.f.addr {
				addrs[it.node] = it.f.addr
				if !ok {
					s.addrCount.Add(1)
				}
			}
			replies = append(replies, it.f)
		case itemReplyEvict:
			// The reply still goes to the frame's own source addr.
			handled++
			prev := len(addrs)
			delete(addrs, it.node)
			if len(addrs) != prev {
				s.addrCount.Add(-1)
			}
			replies = append(replies, it.f)
		case itemDrop:
			malformed++
			putFrame(it.f)
		case itemPush:
			addr := addrs[it.node]
			if addr == nil {
				// Never heard from (or already evicted): drop — its
				// next renew ack carries the same books.
				putFrame(it.f)
				continue
			}
			it.f.addr = addr
			replies = append(replies, it.f)
			promotes++
		case itemEvict:
			prev := len(addrs)
			delete(addrs, it.node)
			if len(addrs) != prev {
				s.addrCount.Add(-1)
			}
		}
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
	for _, note := range notes {
		s.routeNote(note)
	}
	if len(replies) > 0 {
		w.writeBatch(replies) //nolint:errcheck // client retry covers a lost reply
		for _, f := range replies {
			putFrame(f)
		}
	}
	return replies[:0]
}

// routeNote forwards an unsolicited controller→node frame (PromoteMsg)
// to the shard that owns the target node's address. Best-effort: a full
// queue or a draining server drops the push — the node's next renew ack
// carries the same books.
func (s *Server) routeNote(note []byte) {
	_, node, _, ok := mac.PeekHeader(note)
	if !ok || s.closing.Load() {
		return
	}
	f := getFrame()
	f.set(note, nil)
	select {
	case s.shards[int(node)%len(s.shards)] <- shardItem{node: node, f: f, kind: itemPush}:
	default:
		putFrame(f)
	}
}

// routeEvict tells the owning shard to forget a node's address after
// its lease expired. Blocking: unlike a push, a lost eviction is a
// leak, and the only caller (the sweeper) can afford to wait out a
// momentarily full queue.
func (s *Server) routeEvict(node uint32) {
	if s.closing.Load() {
		return
	}
	s.shards[int(node)%len(s.shards)] <- shardItem{node: node, kind: itemEvict}
}

func (s *Server) sweepLoop() {
	defer s.sweeperWG.Done()
	t := time.NewTicker(secondsToDuration(s.cfg.ExpireEveryS))
	defer t.Stop()
	for {
		select {
		case <-s.sweeper:
			return
		case <-t.C:
			s.ExpireNow()
		}
	}
}

// ExpireNow runs one lease-expiry sweep at the server clock's current
// time, queues the resulting promotion pushes and address evictions to
// their owning shards, and returns the IDs expired. Tests with a
// FakeClock call this directly.
func (s *Server) ExpireNow() []uint32 {
	s.mu.Lock()
	expired := s.ctrl.ExpireLeases(s.clock.NowS())
	notes := s.ctrl.TakeNotifications()
	s.mu.Unlock()
	if n := len(expired); n > 0 {
		s.expired.Add(uint64(n))
		s.logf("expired %d leases", n)
	}
	for _, node := range expired {
		s.routeEvict(node)
	}
	for _, note := range notes {
		s.routeNote(note)
	}
	return expired
}

// Stop drains and shuts the pipeline down: readers stop accepting, the
// sweeper halts, every already-queued frame is handled and its reply
// flushed, and the socket closes. Safe to call once.
func (s *Server) Stop() {
	if !s.started {
		return
	}
	s.closing.Store(true)
	// Wake blocked readers; they observe closing and exit.
	s.conn.SetReadDeadline(time.Now()) //nolint:errcheck // mem conns never fail this
	s.readersWG.Wait()
	// The sweeper joins before the shard queues close so it can never
	// route an eviction into a closed channel.
	if s.sweeper != nil {
		close(s.sweeper)
		s.sweeperWG.Wait()
	}
	for _, shard := range s.shards {
		close(shard)
	}
	s.workersWG.Wait() // drain-and-flush
	s.conn.Close()     //nolint:errcheck // shutdown path
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

// AddrCount returns how many nodes currently have a last-seen address
// across all shards. The table follows the leases: a reply that leaves
// its sender holding one interns the address, one that does not, and
// expiry, evict it.
func (s *Server) AddrCount() int {
	return int(s.addrCount.Load())
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
