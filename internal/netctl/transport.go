package netctl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mmx/internal/faults"
	"mmx/internal/mac"
)

// Transport is the client's view of the control link: fire a frame
// toward the AP, wait for the next inbound frame. One frame is one
// datagram — the MAC wire format is self-delimiting and fits far inside
// any MTU (mac.MaxFrameLen bytes), so there is no streaming framing
// layer. Reply matching, retries and timeouts live above this interface
// in Carry; loss, duplication and reordering below it.
type Transport interface {
	// Send transmits one frame toward the AP.
	Send(frame []byte) error
	// Recv blocks up to timeoutS for the next inbound frame (a negative
	// timeout blocks indefinitely). ok is false on timeout or once the
	// transport is closed. The returned slice is only valid until the
	// next Recv or Close — implementations recycle receive buffers, and
	// every consumer decodes a frame into a struct before waiting for
	// the next one.
	Recv(timeoutS float64) (frame []byte, ok bool)
	// Close releases the transport; blocked Recvs return ok=false.
	Close() error
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// routes maps node IDs to the inbound queues of a network's endpoints;
// once closed, new endpoints start closed. Its mutex also guards what the
// owning network keeps beside it.
type routes struct {
	mu     sync.Mutex
	subs   map[uint32]chan *frame
	closed bool
}

// register opens an endpoint of network o for node id, stamping its
// sends with addr.
func (r *routes) register(o owner, id uint32, addr net.Addr) Transport {
	// A client has a few requests in flight at most; 16 absorbs their
	// replies, duplicates and pushes, and a frame beyond them sheds like
	// a full socket buffer.
	ch := make(chan *frame, 16)
	r.mu.Lock()
	if r.closed {
		close(ch)
	} else {
		r.subs[id] = ch
	}
	r.mu.Unlock()
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &endpoint{owner: o, id: id, addr: addr, in: ch, timer: t}
}

// unregister drops id's route if it still leads to in: an endpoint
// registered later under the same ID keeps its own.
func (r *routes) unregister(id uint32, in chan *frame) {
	r.mu.Lock()
	if r.subs[id] == in {
		delete(r.subs, id)
	}
	r.mu.Unlock()
}

// owner is the network an endpoint belongs to — a Mux or a MemNet: it
// carries the endpoint's sends and takes its route down on Close.
type owner interface {
	send(frame []byte, from net.Addr) error
	unregister(id uint32, in chan *frame)
}

// endpoint is the client Transport of both networks: the owner routes
// inbound frames to in and carries sends. The frame Recv returns is held
// until the next Recv or Close, then recycled; one timer, re-armed per
// timed receive, bounds the waits.
type endpoint struct {
	owner owner
	id    uint32
	addr  net.Addr // boxed once so Send doesn't re-box per frame
	in    chan *frame
	held  *frame
	timer *time.Timer
}

func (e *endpoint) Send(frame []byte) error { return e.owner.send(frame, e.addr) }

// Recv waits for the next frame; a negative timeout blocks without
// arming the timer. go.mod's language version (1.22) selects the
// pre-1.23 timer contract, under which an expiry nobody received stays
// buffered in the channel, so the timer is stopped and drained before
// Reset: a stale expiry never cuts a later receive short.
func (e *endpoint) Recv(timeoutS float64) ([]byte, bool) {
	e.recycle()
	var f *frame
	ok := false
	if timeoutS < 0 {
		f, ok = <-e.in
	} else {
		if !e.timer.Stop() {
			select {
			case <-e.timer.C:
			default:
			}
		}
		e.timer.Reset(secondsToDuration(timeoutS))
		select {
		case f, ok = <-e.in:
		case <-e.timer.C:
		}
	}
	if !ok {
		return nil, false
	}
	e.held = f
	return f.bytes(), true
}

func (e *endpoint) recycle() {
	if e.held != nil {
		putFrame(e.held)
		e.held = nil
	}
}

func (e *endpoint) Close() error {
	e.owner.unregister(e.id, e.in)
	e.recycle()
	e.timer.Stop()
	return nil
}

// Mux multiplexes many virtual clients over one UDP socket — how the
// load generator packs 100k simulated nodes onto a handful of file
// descriptors, and how a single client reaches the daemon too. Outbound
// frames are coalesced: Send enqueues onto a shared queue and a writer
// goroutine flushes whole batches in one syscall (sendmmsg on Linux), so
// a storm of concurrent clients pays ~1/batch of a syscall per request
// instead of one each. Inbound frames are read in batches (recvmmsg),
// landed in pooled buffers, and routed to the owning client by the node
// ID every control message carries in its fixed header. A frame for an
// unregistered node (or a client whose queue is full) is dropped,
// exactly as a kernel socket buffer would shed it — the retry machine
// above absorbs the loss; likewise Send is fire-and-forget, surfacing
// wire errors as ordinary UDP loss.
type Mux struct {
	routes
	conn *net.UDPConn
	out  chan *frame
	done chan struct{}
	once sync.Once
}

// muxBatch caps frames moved per mux read or write batch.
const muxBatch = 32

// DialMux connects a mux to the daemon at addr and starts its reader
// and batching writer.
func DialMux(addr string) (*Mux, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	// A mux socket absorbs reply bursts for thousands of clients; an
	// undersized kernel buffer drops replies and every drop becomes a
	// client retransmit — the amplification spiral that collapses a
	// storm. Ask big; the kernel clamps to rmem_max.
	conn.SetReadBuffer(8 << 20)  //nolint:errcheck // best-effort
	conn.SetWriteBuffer(8 << 20) //nolint:errcheck // best-effort
	m := &Mux{
		routes: routes{subs: make(map[uint32]chan *frame)},
		conn:   conn,
		out:    make(chan *frame, 1024),
		done:   make(chan struct{}),
	}
	go m.readLoop()
	go m.writeLoop()
	return m, nil
}

// writeLoop drains the shared send queue in batches: one blocking
// receive, an opportunistic non-blocking top-up, one batched write.
// Write errors are treated as UDP loss — the writer keeps serving so a
// daemon outage (connected sockets surface it as ECONNREFUSED) doesn't
// wedge every client's Send.
func (m *Mux) writeLoop() {
	var bw batchWriter
	if bio := newUDPBatchIO(m.conn); bio != nil {
		bw = bio.writer(muxBatch)
	}
	fs := make([]*frame, 0, muxBatch)
	for {
		fs = fs[:0]
		select {
		case f := <-m.out:
			fs = append(fs, f)
		case <-m.done:
			return
		}
	drain:
		for len(fs) < muxBatch {
			select {
			case f := <-m.out:
				fs = append(fs, f)
			default:
				break drain
			}
		}
		if bw != nil {
			bw.writeBatch(fs) //nolint:errcheck // loss semantics
		} else {
			for _, f := range fs {
				m.conn.Write(f.bytes()) //nolint:errcheck // loss semantics
			}
		}
		for _, f := range fs {
			putFrame(f)
		}
	}
}

func (m *Mux) readLoop() {
	var br batchReader
	if bio := newUDPBatchIO(m.conn); bio != nil {
		br = bio.reader(muxBatch)
	} else {
		br = &genericIO{conn: m.conn}
	}
	fs := make([]*frame, muxBatch)
	for {
		n, err := br.readBatch(fs)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				m.mu.Lock()
				for _, ch := range m.subs {
					close(ch)
				}
				m.subs = make(map[uint32]chan *frame)
				m.closed = true
				m.mu.Unlock()
				return
			}
			// Transient socket error — a connected UDP socket surfaces
			// the daemon's death as ECONNREFUSED (ICMP port unreachable)
			// on reads until the port is re-bound. The mux must outlive
			// the outage: the retry machines above treat the silence as
			// loss and ride it out to the restarted daemon.
			continue
		}
		// One lock covers the whole batch's routing; registration and
		// teardown just wait out a batch.
		m.mu.Lock()
		for i := 0; i < n; i++ {
			f := fs[i]
			fs[i] = nil
			_, node, _, ok := mac.PeekHeader(f.bytes())
			if !ok {
				putFrame(f) // runt frame: nothing routable
				continue
			}
			ch := m.subs[node]
			if ch == nil {
				putFrame(f)
				continue
			}
			select {
			case ch <- f:
			default: // client queue full: shed like a socket buffer
				putFrame(f)
			}
		}
		m.mu.Unlock()
	}
}

// Client returns the transport endpoint for one virtual node. Closing
// the endpoint unregisters it; the shared socket stays open.
func (m *Mux) Client(nodeID uint32) Transport { return m.register(m, nodeID, nil) }

// send queues one frame for the batching writer.
func (m *Mux) send(b []byte, _ net.Addr) error {
	f := getFrame()
	f.set(b, nil) // nil addr: the mux socket is connected
	select {
	case m.out <- f:
		return nil
	case <-m.done:
		putFrame(f)
		return net.ErrClosed
	}
}

// Close stops the writer and closes the shared socket; every endpoint's
// Recv unblocks.
func (m *Mux) Close() error {
	m.once.Do(func() { close(m.done) })
	return m.conn.Close()
}

// sideSend passes frame through side, whose draws mu serializes, and
// hands each surviving copy to deliver: at once, or from a timer after
// the copy's delay — over a snapshot, because the caller may recycle
// frame as soon as this returns. It returns the first error of the
// immediate deliveries; a late copy that fails is just loss.
func sideSend(mu *sync.Mutex, side *faults.SideChannel, frame []byte, deliver func([]byte) error) error {
	mu.Lock()
	deliveries := side.Transmit(frame)
	mu.Unlock()
	var firstErr error
	for _, d := range deliveries {
		if d.DelayS > 0 {
			fr := append([]byte(nil), d.Frame...)
			time.AfterFunc(secondsToDuration(d.DelayS), func() { deliver(fr) }) //nolint:errcheck // late-copy loss
			continue
		}
		if err := deliver(d.Frame); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FaultyTransport injects seeded faults into a Transport's send path —
// the client-side half of a chaos drill against a live daemon. It reuses
// faults.SideChannel verbatim, so the drop/dup/truncate/delay semantics
// (and their statistics counters) are the ones the simulator validates.
// Delayed copies are delivered late by a timer rather than a virtual
// clock; the mutex makes the seeded RNG draw safe under the load
// generator's concurrency, at the cost of cross-client draw order being
// scheduling-dependent (per-run determinism at that level belongs to the
// simulator, not a real-time storm).
type FaultyTransport struct {
	T    Transport
	mu   sync.Mutex
	side *faults.SideChannel
}

// NewFaultyTransport wraps t with a seeded lossy send path.
func NewFaultyTransport(t Transport, side *faults.SideChannel) *FaultyTransport {
	return &FaultyTransport{T: t, side: side}
}

// Send passes the frame through the side channel: it may vanish, arrive
// twice, arrive truncated, or arrive late.
func (f *FaultyTransport) Send(frame []byte) error {
	return sideSend(&f.mu, f.side, frame, f.T.Send)
}

// Recv and Close delegate to the wrapped transport.
func (f *FaultyTransport) Recv(timeoutS float64) ([]byte, bool) { return f.T.Recv(timeoutS) }

// Close closes the wrapped transport.
func (f *FaultyTransport) Close() error { return f.T.Close() }

// memAddr is the fake net.Addr a MemNet client presents to the server.
type memAddr uint32

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return fmt.Sprintf("mem:%d", uint32(a)) }

// MemNet is an in-memory datagram network: one server socket plus any
// number of client transports, with a seeded faults.SideChannel on each
// direction. It lets the full daemon/client stack — Server goroutines,
// ingest queue, retry machines — run in a test with deterministic fault
// injection and no real sockets. Datagrams ride the same pooled frames
// as the socket path, so the MemNet benchmark measures the server's
// true allocation behavior. The network outlives any one server: after
// a Server stops (closing its conn), ServerConn hands out a fresh
// socket over the same in-flight state, which is what a mid-storm
// daemon-restart drill needs. While no server is reading, client sends
// still succeed and pile into the ingress buffer until it sheds —
// exactly a kernel socket buffer with the daemon down.
type MemNet struct {
	routes // its mutex also serializes the side channel's draws
	side   *faults.SideChannel
	toSrv  chan *frame
}

// NewMemNet builds an in-memory network whose both directions share one
// seeded side channel (nil side = perfect link).
func NewMemNet(side *faults.SideChannel) *MemNet {
	return &MemNet{
		routes: routes{subs: make(map[uint32]chan *frame)},
		side:   side,
		toSrv:  make(chan *frame, 1024),
	}
}

// Client registers a node endpoint on the network.
func (mn *MemNet) Client(nodeID uint32) Transport { return mn.register(mn, nodeID, memAddr(nodeID)) }

// send carries a client endpoint's frame toward the server socket; a
// full ingress queue (or no daemon reading) sheds inside deliver.
func (mn *MemNet) send(frame []byte, from net.Addr) error {
	mn.transmit(frame, mn.toSrv, from)
	return nil
}

// transmit passes one frame through the shared side channel and hands
// the surviving copies to ch, stamped with addr. The destination is
// passed as plain data rather than a deliver-closure so the perfect-link
// fast path — what every benchmark runs — is allocation-free end to end;
// only the fault path builds a closure.
func (mn *MemNet) transmit(frame []byte, ch chan *frame, addr net.Addr) {
	if mn.side == nil {
		mn.deliver(frame, ch, addr)
		return
	}
	sideSend(&mn.mu, mn.side, frame, func(b []byte) error { //nolint:errcheck // deliver cannot fail
		mn.deliver(b, ch, addr)
		return nil
	})
}

// deliver copies one surviving frame into a pooled buffer and enqueues
// it; a full queue sheds the frame, exactly as a kernel socket buffer
// would.
func (mn *MemNet) deliver(b []byte, ch chan *frame, addr net.Addr) {
	f := getFrame()
	f.set(b, addr)
	select {
	case ch <- f:
	default:
		putFrame(f)
	}
}

// ServerConn returns a server-side socket, a net.PacketConn the Server
// can serve exactly as it serves a real UDP socket. Each call mints a
// fresh socket over the same network, so a restart drill is: stop the
// old server (which closes its conn), build a new one, Serve a new
// ServerConn. Frames buffered while no server was reading are delivered
// to the newcomer, like a rebind over a warm kernel buffer.
func (mn *MemNet) ServerConn() net.PacketConn {
	return &memServerConn{mn: mn, done: make(chan struct{}), dlWake: make(chan struct{})}
}

// memServerConn adapts a MemNet to net.PacketConn for the Server. It is
// also its own batchIO: channel operations are goroutine-safe and hold
// no scratch state, so one instance serves every reader and worker.
type memServerConn struct {
	mn   *MemNet
	done chan struct{}
	once sync.Once

	dlMu     sync.Mutex
	deadline time.Time
	// dlWake is closed (and replaced) on every SetReadDeadline so a
	// blocked read re-evaluates its deadline — real sockets interrupt
	// in-flight reads the same way, and Server.Stop relies on it to
	// unblock its readers.
	dlWake chan struct{}
}

func (sc *memServerConn) reader(int) batchReader { return sc }
func (sc *memServerConn) writer(int) batchWriter { return sc }

// readOne blocks for the next ingress frame, honoring the read deadline
// and close-with-drain semantics of a real socket.
func (sc *memServerConn) readOne() (*frame, error) {
	for {
		sc.dlMu.Lock()
		dl := sc.deadline
		wake := sc.dlWake
		sc.dlMu.Unlock()
		var timeout <-chan time.Time
		var timer *time.Timer
		if !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				// Match net's contract: an expired deadline fails reads
				// immediately with a timeout error.
				select {
				case f := <-sc.mn.toSrv:
					return f, nil
				default:
					return nil, errDeadline
				}
			}
			timer = time.NewTimer(d)
			timeout = timer.C
		}
		select {
		case f := <-sc.mn.toSrv:
			if timer != nil {
				timer.Stop()
			}
			return f, nil
		case <-sc.done:
			if timer != nil {
				timer.Stop()
			}
			// Drain what arrived before the close so a graceful shutdown
			// still flushes queued requests, then report closure.
			select {
			case f := <-sc.mn.toSrv:
				return f, nil
			default:
				return nil, net.ErrClosed
			}
		case <-timeout:
			return nil, errDeadline
		case <-wake:
			// Deadline changed mid-read: loop and re-evaluate.
			if timer != nil {
				timer.Stop()
			}
		}
	}
}

func (sc *memServerConn) readBatch(fs []*frame) (int, error) {
	f, err := sc.readOne()
	if err != nil {
		return 0, err
	}
	if fs[0] != nil {
		putFrame(fs[0])
	}
	fs[0] = f
	n := 1
	for n < len(fs) {
		select {
		case f2 := <-sc.mn.toSrv:
			if fs[n] != nil {
				putFrame(fs[n])
			}
			fs[n] = f2
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

func (sc *memServerConn) writeBatch(fs []*frame) error {
	mn := sc.mn
	if mn.side != nil {
		// Fault injection routes through the side channel per frame;
		// that path is not lock- or allocation-sensitive.
		var firstErr error
		for _, f := range fs {
			if _, err := sc.WriteTo(f.bytes(), f.addr); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	// Perfect link: one lock covers the whole batch's queue lookups and
	// deliveries. Only registration/teardown contend on this mutex, so
	// holding it across the buffered, non-blocking sends is cheap.
	mn.mu.Lock()
	for _, f := range fs {
		if id, ok := f.addr.(memAddr); ok {
			if ch := mn.subs[uint32(id)]; ch != nil {
				mn.deliver(f.bytes(), ch, nil)
			}
		}
	}
	mn.mu.Unlock()
	return nil
}

func (sc *memServerConn) ReadFrom(p []byte) (int, net.Addr, error) {
	f, err := sc.readOne()
	if err != nil {
		return 0, nil, err
	}
	n := copy(p, f.bytes())
	addr := f.addr
	putFrame(f)
	return n, addr, nil
}

// errDeadline satisfies net.Error with Timeout()==true, matching what
// the Server's reader loop expects from a real socket.
var errDeadline net.Error = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netctl: i/o deadline exceeded" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

func (sc *memServerConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	id, ok := addr.(memAddr)
	if !ok {
		return 0, fmt.Errorf("netctl: foreign addr %v on mem network", addr)
	}
	sc.mn.mu.Lock()
	ch := sc.mn.subs[uint32(id)]
	sc.mn.mu.Unlock()
	if ch == nil {
		return len(p), nil // client gone: the link silently drops
	}
	sc.mn.transmit(p, ch, nil)
	return len(p), nil
}

func (sc *memServerConn) Close() error {
	sc.once.Do(func() { close(sc.done) })
	return nil
}

func (sc *memServerConn) LocalAddr() net.Addr { return memAddr(0) }

func (sc *memServerConn) SetDeadline(t time.Time) error { return sc.SetReadDeadline(t) }

func (sc *memServerConn) SetReadDeadline(t time.Time) error {
	sc.dlMu.Lock()
	sc.deadline = t
	close(sc.dlWake) // interrupt blocked reads to adopt the new deadline
	sc.dlWake = make(chan struct{})
	sc.dlMu.Unlock()
	return nil
}

func (sc *memServerConn) SetWriteDeadline(time.Time) error { return nil }
