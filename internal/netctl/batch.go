package netctl

import (
	"fmt"
	"math/bits"
	"net"
	"sync/atomic"

	"mmx/internal/mac"
)

// Batch I/O abstraction for the server's ingest/reply pipeline. A
// batchReader blocks for the first datagram (honoring read deadlines),
// then takes whatever more is immediately available up to the batch
// size; a batchWriter flushes a batch of reply frames, each to its own
// frame.addr. On Linux these map to one recvmmsg/sendmmsg syscall per
// batch, runs of one destination and size coalesced into UDP GSO/GRO
// super-datagrams; the in-memory test network moves batches per channel
// sweep; everything else degrades to one datagram per ReadFrom/WriteTo
// call — the portable single-message fallback.
type batchReader interface {
	// readBatch fills fs (reusing any non-nil pooled frames already in
	// it, acquiring the rest) and returns how many lead entries hold
	// received datagrams; datagrams read but not handed out wait for
	// the next call. Each filled frame carries its source address;
	// a frame that arrived truncated reports n > mac.MaxFrameLen so the
	// caller's malformed check catches it.
	readBatch(fs []*frame) (int, error)
}

type batchWriter interface {
	// writeBatch sends every frame to its addr. Best-effort: an error
	// means some tail of the batch was lost, which the client retry
	// machinery absorbs exactly like wire loss. Frames remain owned by
	// the caller (it recycles them afterwards).
	writeBatch(fs []*frame) error
}

// batchIO mints per-goroutine readers and writers over one socket.
// Readers and writers hold per-goroutine scratch state (iovecs, sockaddr
// storage, interning tables), so each reader/worker goroutine gets its
// own; the underlying socket is shared and safe for concurrent batch
// syscalls.
type batchIO interface {
	reader(batch int) batchReader
	writer(batch int) batchWriter
}

// newBatchIO picks the fastest implementation for conn: the in-memory
// test network and (on Linux amd64/arm64) recvmmsg/sendmmsg over UDP
// move whole batches per call, the latter coalescing runs of datagrams
// unless coalesce is false; anything else falls back to single-message
// I/O with identical semantics. Every implementation counts what it
// moves into io.
func newBatchIO(conn net.PacketConn, coalesce bool, io *traffic) batchIO {
	if mc, ok := conn.(*memServerConn); ok {
		mc.io = io
		return mc
	}
	if uc, ok := conn.(*net.UDPConn); ok {
		if bio := newUDPBatchIO(uc, coalesce, io); bio != nil {
			return bio
		}
	}
	return &genericIO{conn: conn, io: io}
}

// groupSpan is the longest batch groupRuns reorders: a bitmask of its
// frames fits a uint64. Batches are at most 32 frames.
const groupSpan = 64

// groupRuns stably reorders a batch so that frames with one destination
// and one size sit next to each other, where a coalescing writer cuts
// them into one run. No frame moves ahead of an earlier frame for the
// same node ID (mac.PeekHeader's node; frames without a header count
// as one node), so every node's frames keep the order they were
// produced in; frames to different nodes have no order between them,
// and UDP never promised one. Each pass takes the first frame left and
// every later one with its destination and size whose node has no
// frame left ahead of it. A pass thereby takes the rest of the in-order
// run its first frame opens, so the grouped batch never has more runs
// than the batch had. A batch longer than groupSpan is left as it is.
// It allocates nothing.
func groupRuns(fs []*frame) {
	n := len(fs)
	if n < 3 || n > groupSpan {
		return // two frames cut into the same runs in either order
	}
	// pred[i] is the index of the last frame before i for i's node, or -1.
	var node [groupSpan]uint32
	var pred [groupSpan]int8
	for i, f := range fs {
		_, id, _, ok := mac.PeekHeader(f.bytes())
		if !ok {
			id = ^uint32(0)
		}
		node[i], pred[i] = id, -1
		for j := i - 1; j >= 0; j-- {
			if node[j] == id {
				pred[i] = int8(j)
				break
			}
		}
	}
	var out [groupSpan]*frame
	left := uint64(1)<<n - 1 // bit i: fs[i] not yet placed
	k := 0
	for left != 0 {
		lead := fs[bits.TrailingZeros64(left)]
		for m := left; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			f := fs[j]
			if f.n != lead.n || f.addr != lead.addr {
				continue
			}
			if p := pred[j]; p >= 0 && left&(1<<p) != 0 {
				continue // its node's earlier frame is still to be placed
			}
			left &^= 1 << j
			out[k] = f
			k++
		}
	}
	copy(fs, out[:n])
}

// Traffic counts one socket's datagram I/O: the syscalls made (a MemNet
// batch counts as one), the kernel messages they moved — a coalesced
// run of datagrams is one message — and the datagrams in them.
type Traffic struct {
	RecvCalls, RecvMsgs, RecvDatagrams uint64
	SendCalls, SendMsgs, SendDatagrams uint64
}

// Add returns the field-wise sum of t and o.
func (t Traffic) Add(o Traffic) Traffic {
	return Traffic{
		t.RecvCalls + o.RecvCalls, t.RecvMsgs + o.RecvMsgs, t.RecvDatagrams + o.RecvDatagrams,
		t.SendCalls + o.SendCalls, t.SendMsgs + o.SendMsgs, t.SendDatagrams + o.SendDatagrams,
	}
}

// String renders the counters as key=value pairs.
func (t Traffic) String() string {
	return fmt.Sprintf("recv-calls=%d recv-msgs=%d recv-datagrams=%d send-calls=%d send-msgs=%d send-datagrams=%d",
		t.RecvCalls, t.RecvMsgs, t.RecvDatagrams, t.SendCalls, t.SendMsgs, t.SendDatagrams)
}

// traffic is a socket's live Traffic. Readers and writers add to it once
// per batch, and Stats snapshots it from any goroutine.
type traffic struct {
	recvCalls, recvMsgs, recvDatagrams atomic.Uint64
	sendCalls, sendMsgs, sendDatagrams atomic.Uint64
}

func (t *traffic) recv(calls, msgs, datagrams int) {
	t.recvCalls.Add(uint64(calls))
	t.recvMsgs.Add(uint64(msgs))
	t.recvDatagrams.Add(uint64(datagrams))
}

func (t *traffic) send(calls, msgs, datagrams int) {
	t.sendCalls.Add(uint64(calls))
	t.sendMsgs.Add(uint64(msgs))
	t.sendDatagrams.Add(uint64(datagrams))
}

func (t *traffic) load() Traffic {
	return Traffic{
		t.recvCalls.Load(), t.recvMsgs.Load(), t.recvDatagrams.Load(),
		t.sendCalls.Load(), t.sendMsgs.Load(), t.sendDatagrams.Load(),
	}
}

// genericIO is the portable fallback: one datagram per syscall, no
// shared scratch state, so one instance serves as reader and writer for
// any number of goroutines.
type genericIO struct {
	conn net.PacketConn
	io   *traffic
}

func (g *genericIO) reader(int) batchReader { return g }
func (g *genericIO) writer(int) batchWriter { return g }

func (g *genericIO) readBatch(fs []*frame) (int, error) {
	f := fs[0]
	if f == nil {
		f = getFrame()
		fs[0] = f
	}
	n, addr, err := g.conn.ReadFrom(f.buf[:])
	if err != nil {
		g.io.recv(1, 0, 0)
		return 0, err
	}
	f.n, f.addr = n, addr
	g.io.recv(1, 1, 1)
	return 1, nil
}

func (g *genericIO) writeBatch(fs []*frame) error {
	var firstErr error
	for _, f := range fs {
		var err error
		if f.addr == nil {
			_, err = g.conn.(net.Conn).Write(f.bytes()) // a connected socket: the mux
		} else {
			_, err = g.conn.WriteTo(f.bytes(), wireAddr(f.addr))
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	g.io.send(len(fs), len(fs), len(fs))
	return firstErr
}
