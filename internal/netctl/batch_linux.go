//go:build linux && (amd64 || arm64)

package netctl

// Batched UDP I/O via recvmmsg(2)/sendmmsg(2) with UDP segmentation
// offload both ways: one syscall moves a whole batch, and inside it each
// run of adjacent datagrams with one destination and one size travels
// as one kernel super-datagram (UDP_SEGMENT going out, UDP_GRO coming
// in), so the kernel walks its per-packet path once per run rather than
// once per datagram. The sockets stay inside Go's runtime poller — the
// syscalls run non-blocking under RawConn.Read/Write, returning false
// on EAGAIN so the poller parks the goroutine until readiness, and
// deadline wakeups (Server.Stop's interrupt) surface as the usual
// timeout error.

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: a send's segment size (GSO)
	udpGRO     = 104 // UDP_GRO: runs arrive whole, their segment size in a cmsg

	// maxSegs caps the datagrams one super-datagram carries.
	maxSegs = 16
	// readBufLen is a reader's one receive buffer: 4 slots of maxSegs
	// frames with GRO, or plain slots of frameCap without.
	readBufLen = 4 * maxSegs * frameCap
	// cmsgBuf holds one control message with up to 8 bytes of data:
	// UDP_SEGMENT's uint16 going out, UDP_GRO's int coming in.
	cmsgBuf = syscall.SizeofCmsghdr + 8
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a plain
// msghdr plus the per-message byte count the kernel fills in.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmAddr is an interned peer address: the net.UDPAddr the rest of the
// server (and its logs) see, plus the raw kernel sockaddr echoed back
// verbatim on the reply path — so a dual-stack socket answers
// v4-mapped peers in exactly the representation they arrived with.
// Interning gives every (ip, port) one stable pointer, which is what
// lets the address table and reply frames share addresses
// without copying or allocating per datagram, and the writer find a
// run of one destination by comparing pointers.
type mmAddr struct {
	net.UDPAddr
	raw    syscall.RawSockaddrInet6
	rawLen uint32
}

// wireAddr unwraps an interned batch address into the *net.UDPAddr a
// plain conn.WriteTo accepts (the shed path writes singles through the
// net package).
func wireAddr(a net.Addr) net.Addr {
	if ma, ok := a.(*mmAddr); ok {
		return &ma.UDPAddr
	}
	return a
}

// udpBatchIO is one socket's batch I/O. gro records whether the socket
// took UDP_GRO; gso whether its writers may still send super-datagrams.
// A refusal of either leaves the socket on one datagram per message for
// its life.
type udpBatchIO struct {
	rc       syscall.RawConn
	io       *traffic
	coalesce bool
	once     sync.Once
	gro      bool
	gso      atomic.Bool
}

// setsockoptInt is the one setsockopt the batch path makes.
var setsockoptInt = syscall.SetsockoptInt

func newUDPBatchIO(conn *net.UDPConn, coalesce bool, io *traffic) batchIO {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	return &udpBatchIO{rc: rc, io: io, coalesce: coalesce}
}

// setGRO sets UDP_GRO on the socket once, when its first reader or
// writer is built — on the loop's own goroutine for a mux, so dialing
// makes no syscall. A kernel that refuses (ENOPROTOOPT before Linux
// 5.0) may also predate UDP_SEGMENT (4.18), which would ignore the
// control message and send a run as one oversized datagram, so the
// socket then moves one datagram per message both ways.
func (u *udpBatchIO) setGRO() bool {
	u.once.Do(func() {
		if u.coalesce {
			u.rc.Control(func(fd uintptr) { //nolint:errcheck // a closed socket fails its first read instead
				u.gro = setsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
			})
		}
		u.gso.Store(u.gro)
	})
	return u.gro
}

func (u *udpBatchIO) reader(batch int) batchReader {
	gro := u.setGRO()
	slot, slots := frameCap, min(batch, readBufLen/frameCap)
	if gro {
		slot, slots = maxSegs*frameCap, readBufLen/(maxSegs*frameCap)
	}
	r := &mmsgReader{
		rc:     u.rc,
		io:     u.io,
		buf:    make([]byte, slot*slots),
		slot:   slot,
		hdrs:   make([]mmsghdr, slots),
		iovs:   make([]syscall.Iovec, slots),
		names:  make([]syscall.RawSockaddrInet6, slots),
		addrs:  make([]net.Addr, slots),
		segs:   make([]int, slots),
		intern: make(map[udpKey]*mmAddr),
	}
	if gro {
		r.ctrls = make([][cmsgBuf]byte, slots)
	}
	for i := range r.hdrs {
		r.iovs[i] = syscall.Iovec{Base: &r.buf[i*slot], Len: uint64(slot)}
		h := &r.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		h.Iov, h.Iovlen = &r.iovs[i], 1
		if gro {
			h.Control = &r.ctrls[i][0]
		}
	}
	// Bind the poller callback once; a per-call closure would put one
	// allocation back on every batch.
	r.readFn = r.doRead
	return r
}

func (u *udpBatchIO) writer(batch int) batchWriter {
	u.setGRO()
	w := &mmsgWriter{
		rc:    u.rc,
		io:    u.io,
		gso:   &u.gso,
		hdrs:  make([]mmsghdr, batch),
		segs:  make([]int, batch),
		names: make([]syscall.RawSockaddrInet6, batch),
		ctrls: make([][cmsgBuf]byte, batch),
		iovs:  make([]syscall.Iovec, batch),
	}
	w.writeFn = w.doWrite
	return w
}

// udpKey identifies a peer for address interning. IPv4 peers are keyed
// in v4-mapped form so a dual-stack socket doesn't intern one peer
// twice.
type udpKey struct {
	ip    [16]byte
	port  uint16
	scope uint32
}

// internCap bounds the interning map. A fleet cycling through more
// distinct source addresses than this resets the map and re-interns;
// pointers already handed out stay valid wherever they are held.
const internCap = 1 << 16

// mmsgReader reads whole messages into slots of one buffer and hands
// out their datagrams as pooled frames: a super-datagram is cut at its
// segment size, and what one readBatch cannot take waits for the next,
// which makes no syscall until every datagram of the last read is out.
type mmsgReader struct {
	rc     syscall.RawConn
	io     *traffic
	buf    []byte // len(hdrs) slots of slot bytes
	slot   int
	hdrs   []mmsghdr
	iovs   []syscall.Iovec
	names  []syscall.RawSockaddrInet6
	ctrls  [][cmsgBuf]byte // nil without GRO
	addrs  []net.Addr      // each message's interned source
	segs   []int           // each message's segment size; 0 for a plain datagram
	intern map[udpKey]*mmAddr

	readFn func(fd uintptr) bool
	calls  int
	got    int
	sysErr error

	// next and off locate the first datagram not yet handed out:
	// message next, byte off within it.
	next, off int
}

// doRead is the poller callback of one read. After a read that drained
// the socket, the next one still makes a recvmmsg that returns EAGAIN
// before it parks. Skipping that call after a read that filled fewer
// slots than it had halves the receive calls and loses wakeups: the
// poller's RawRead clears a pending readiness (prepareRead) before it
// calls back, and the socket is edge-triggered, so a callback that
// returns false without reading parks over datagrams already queued
// until another one arrives.
func (r *mmsgReader) doRead(fd uintptr) bool {
	for {
		r.calls++
		n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			r.got = int(n)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // park in the poller until readable
		default:
			r.sysErr = errno
			return true
		}
	}
}

// read fills the slots with one recvmmsg and notes each message's
// source and segment size.
func (r *mmsgReader) read() error {
	for i := range r.hdrs {
		h := &r.hdrs[i].hdr
		h.Namelen = uint32(unsafe.Sizeof(r.names[i]))
		if r.ctrls != nil {
			h.Controllen = cmsgBuf
		}
	}
	r.calls, r.got, r.sysErr, r.next, r.off = 0, 0, nil, 0, 0
	err := r.rc.Read(r.readFn)
	if err == nil {
		err = r.sysErr
	}
	if err != nil {
		r.got = 0
		r.io.recv(r.calls, 0, 0)
		return err
	}
	for i := 0; i < r.got; i++ {
		r.addrs[i] = r.addrOf(i)
		r.segs[i] = r.segSize(i)
	}
	r.io.recv(r.calls, r.got, 0)
	return nil
}

// segSize reads the UDP_GRO control message of message i by hand
// (syscall.ParseSocketControlMessage allocates): the segment size of a
// coalesced run, or 0 for a plain datagram.
func (r *mmsgReader) segSize(i int) int {
	h := &r.hdrs[i].hdr
	if r.ctrls == nil || h.Controllen < syscall.SizeofCmsghdr+4 {
		return 0
	}
	c := (*syscall.Cmsghdr)(unsafe.Pointer(&r.ctrls[i][0]))
	if c.Level != solUDP || c.Type != udpGRO {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&r.ctrls[i][syscall.SizeofCmsghdr])))
}

func (r *mmsgReader) readBatch(fs []*frame) (int, error) {
	if r.next >= r.got {
		if err := r.read(); err != nil {
			return 0, err
		}
	}
	n := 0
	for ; n < len(fs) && r.next < r.got; n++ {
		if fs[n] == nil {
			fs[n] = getFrame()
		}
		r.take(fs[n])
	}
	r.io.recv(0, 0, n)
	return n, nil
}

// take copies the next datagram into f and steps past it. Whole
// segments of a run come out one by one; a message the kernel clipped
// to its slot ends in one datagram forced past mac.MaxFrameLen, so the
// clipped rest counts as malformed exactly once. A datagram longer than
// frameCap is clipped to it and reads as malformed too.
func (r *mmsgReader) take(f *frame) {
	h := &r.hdrs[r.next]
	d := r.buf[r.next*r.slot : r.next*r.slot+int(h.n)][r.off:]
	seg := r.segs[r.next]
	clipped := h.hdr.Flags&syscall.MSG_TRUNC != 0
	f.addr = r.addrs[r.next]
	switch {
	case seg > 0 && (len(d) > seg || len(d) == seg && clipped):
		// A whole segment with more of the run after it.
		f.n = copy(f.buf[:], d[:seg])
		r.off += seg
		return
	case clipped:
		f.n = frameCap
	default:
		f.n = copy(f.buf[:], d)
	}
	r.next, r.off = r.next+1, 0
}

// addrOf interns the i-th received sockaddr. Steady state — a known
// peer — is one map hit and zero allocations.
func (r *mmsgReader) addrOf(i int) net.Addr {
	sa := &r.names[i]
	var k udpKey
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		k.ip[10], k.ip[11] = 0xff, 0xff
		copy(k.ip[12:], sa4.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		k.port = uint16(p[0])<<8 | uint16(p[1])
	case syscall.AF_INET6:
		k.ip = sa.Addr
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		k.port = uint16(p[0])<<8 | uint16(p[1])
		k.scope = sa.Scope_id
	default:
		return nil // not a peer this socket can reply to
	}
	if a, ok := r.intern[k]; ok {
		return a
	}
	if len(r.intern) >= internCap {
		r.intern = make(map[udpKey]*mmAddr, internCap)
	}
	a := &mmAddr{raw: *sa, rawLen: r.hdrs[i].hdr.Namelen}
	a.Port = int(k.port)
	if sa.Family == syscall.AF_INET {
		a.IP = append(net.IP(nil), k.ip[12:]...)
	} else {
		a.IP = append(net.IP(nil), k.ip[:]...)
	}
	r.intern[k] = a
	return a
}

// mmsgWriter cuts each batch, in order, into runs of adjacent frames
// with one addr and one size, at most maxSegs long; a run of two or
// more leaves as one message carrying one iovec per frame and a
// UDP_SEGMENT control message, and runs are never reordered.
type mmsgWriter struct {
	rc    syscall.RawConn
	io    *traffic
	gso   *atomic.Bool
	hdrs  []mmsghdr // one per message
	segs  []int     // frames in each message
	names []syscall.RawSockaddrInet6
	ctrls [][cmsgBuf]byte
	iovs  []syscall.Iovec // one per frame; a message's are adjacent

	writeFn func(fd uintptr) bool
	vlen    int
	calls   int
	sent    int
	sysErr  error
}

func (w *mmsgWriter) doWrite(fd uintptr) bool {
	for {
		w.calls++
		n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&w.hdrs[0])), uintptr(w.vlen),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			w.sent = int(n)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // park until writable
		default:
			w.sysErr = errno
			return true
		}
	}
}

func (w *mmsgWriter) writeBatch(fs []*frame) (err error) {
	msgs, datagrams := 0, 0
	w.calls = 0
	for i := 0; i < len(fs); {
		if w.vlen, err = w.build(fs[i:]); err != nil {
			break
		}
		w.sent, w.sysErr = 0, nil
		if err = w.rc.Write(w.writeFn); err != nil {
			break
		}
		if err = w.sysErr; err != nil {
			if w.segs[0] > 1 && (err == syscall.EIO || err == syscall.EINVAL) {
				// The kernel refused a segmented send: the socket sends
				// one datagram per message from now on, starting with a
				// resend of the refused run.
				w.gso.Store(false)
				err = nil
				continue
			}
			break
		}
		if w.sent <= 0 {
			w.sent = 1 // defensive: a zero return must not spin forever
		}
		for _, k := range w.segs[:w.sent] {
			i += k
			datagrams += k
		}
		msgs += w.sent
	}
	w.io.send(w.calls, msgs, datagrams)
	return err
}

// build lays out the messages of one sendmmsg from the head of fs, up
// to one frame per iovec, and returns how many it made.
func (w *mmsgWriter) build(fs []*frame) (int, error) {
	gso := w.gso.Load()
	m := -1
	for j := 0; j < len(fs) && j < len(w.iovs); j++ {
		f := fs[j]
		if m >= 0 && gso && w.segs[m] < maxSegs && f.n > 0 && f.n == fs[j-1].n && f.addr == fs[j-1].addr {
			w.segs[m]++
		} else {
			if m+1 == len(w.hdrs) {
				break
			}
			m++
			w.segs[m] = 1
			w.hdrs[m] = mmsghdr{hdr: syscall.Msghdr{Iov: &w.iovs[j]}}
			if f.addr != nil {
				// A nil addr means a connected socket (the mux's batched
				// send side); otherwise only reader-interned addresses
				// reach the UDP reply path — anything else is a
				// programming error upstream.
				ma, ok := f.addr.(*mmAddr)
				if !ok {
					return 0, errForeignAddr
				}
				w.names[m] = ma.raw
				w.hdrs[m].hdr.Name = (*byte)(unsafe.Pointer(&w.names[m]))
				w.hdrs[m].hdr.Namelen = ma.rawLen
			}
		}
		w.iovs[j] = syscall.Iovec{Base: &f.buf[0], Len: uint64(f.n)}
	}
	for k := 0; k <= m; k++ {
		h := &w.hdrs[k].hdr
		h.Iovlen = uint64(w.segs[k])
		if w.segs[k] > 1 {
			c := (*syscall.Cmsghdr)(unsafe.Pointer(&w.ctrls[k][0]))
			c.Level, c.Type = solUDP, udpSegment
			c.SetLen(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&w.ctrls[k][syscall.SizeofCmsghdr])) = uint16(h.Iov.Len)
			h.Control = &w.ctrls[k][0]
			h.SetControllen(cmsgBuf)
		}
	}
	return m + 1, nil
}
