//go:build linux && (amd64 || arm64)

package netctl

// Batched UDP I/O via recvmmsg(2)/sendmmsg(2): one syscall moves up to
// a whole batch of datagrams in each direction, which is where the
// control plane's syscall budget goes from 2 per request to 2 per
// ~batch requests. The sockets stay inside Go's runtime poller — the
// syscalls run non-blocking under RawConn.Read/Write, returning false
// on EAGAIN so the poller parks the goroutine until readiness, and
// deadline wakeups (Server.Stop's interrupt) surface as the usual
// timeout error.

import (
	"net"
	"syscall"
	"unsafe"
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
// without copying or allocating per datagram.
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

type udpBatchIO struct{ conn *net.UDPConn }

func newUDPBatchIO(conn *net.UDPConn) batchIO {
	if _, err := conn.SyscallConn(); err != nil {
		return nil
	}
	return &udpBatchIO{conn: conn}
}

func (u *udpBatchIO) reader(batch int) batchReader {
	rc, _ := u.conn.SyscallConn()
	r := &mmsgReader{
		rc:     rc,
		hdrs:   make([]mmsghdr, batch),
		iovs:   make([]syscall.Iovec, batch),
		names:  make([]syscall.RawSockaddrInet6, batch),
		intern: make(map[udpKey]*mmAddr),
	}
	// Bind the poller callback once; a per-call closure would put one
	// allocation back on every batch.
	r.readFn = r.doRead
	return r
}

func (u *udpBatchIO) writer(batch int) batchWriter {
	rc, _ := u.conn.SyscallConn()
	w := &mmsgWriter{
		rc:    rc,
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		names: make([]syscall.RawSockaddrInet6, batch),
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

type mmsgReader struct {
	rc     syscall.RawConn
	hdrs   []mmsghdr
	iovs   []syscall.Iovec
	names  []syscall.RawSockaddrInet6
	intern map[udpKey]*mmAddr

	readFn func(fd uintptr) bool
	vlen   int
	got    int
	sysErr error
}

func (r *mmsgReader) doRead(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(r.vlen),
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

func (r *mmsgReader) readBatch(fs []*frame) (int, error) {
	cnt := len(fs)
	if cnt > len(r.hdrs) {
		cnt = len(r.hdrs)
	}
	for i := 0; i < cnt; i++ {
		if fs[i] == nil {
			fs[i] = getFrame()
		}
		r.iovs[i] = syscall.Iovec{Base: &fs[i].buf[0], Len: frameCap}
		r.hdrs[i].hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&r.names[i])),
			Namelen: uint32(unsafe.Sizeof(r.names[i])),
			Iov:     &r.iovs[i],
			Iovlen:  1,
		}
		r.hdrs[i].n = 0
	}
	r.vlen, r.got, r.sysErr = cnt, 0, nil
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, err
	}
	if r.sysErr != nil {
		return 0, r.sysErr
	}
	for i := 0; i < r.got; i++ {
		f := fs[i]
		f.n = int(r.hdrs[i].n)
		if r.hdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			// The kernel clipped the datagram to our buffer: force the
			// length past MaxFrameLen so it lands in the malformed count.
			f.n = frameCap
		}
		f.addr = r.addrOf(i)
	}
	return r.got, nil
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

type mmsgWriter struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6

	writeFn func(fd uintptr) bool
	vlen    int
	sent    int
	sysErr  error
}

func (w *mmsgWriter) doWrite(fd uintptr) bool {
	for {
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

func (w *mmsgWriter) writeBatch(fs []*frame) error {
	for i := 0; i < len(fs); {
		cnt := 0
		for i+cnt < len(fs) && cnt < len(w.hdrs) {
			f := fs[i+cnt]
			w.iovs[cnt] = syscall.Iovec{Base: &f.buf[0], Len: uint64(f.n)}
			w.hdrs[cnt].hdr = syscall.Msghdr{Iov: &w.iovs[cnt], Iovlen: 1}
			w.hdrs[cnt].n = 0
			if f.addr != nil {
				// A nil addr means a connected socket (the mux's batched
				// send side); otherwise only reader-interned addresses
				// reach the UDP reply path — anything else is a
				// programming error upstream.
				ma, ok := f.addr.(*mmAddr)
				if !ok {
					return errForeignAddr
				}
				w.names[cnt] = ma.raw
				w.hdrs[cnt].hdr.Name = (*byte)(unsafe.Pointer(&w.names[cnt]))
				w.hdrs[cnt].hdr.Namelen = ma.rawLen
			}
			cnt++
		}
		w.vlen, w.sent, w.sysErr = cnt, 0, nil
		if err := w.rc.Write(w.writeFn); err != nil {
			return err
		}
		if w.sysErr != nil {
			return w.sysErr
		}
		if w.sent <= 0 {
			w.sent = 1 // defensive: a zero return must not spin forever
		}
		i += w.sent
	}
	return nil
}
