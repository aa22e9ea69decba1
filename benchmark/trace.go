package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// The tracer records one span per call the driver makes into the stack
// (workload → repeat → phase → call). Spans are kept in memory and
// written once at exit. Spans inside simnet.Run and netctl.Server are
// not this benchmark's business: it only sees the program from outside.

// span is one completed call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	// Count is the work done inside the span, in the span's own unit
	// (frames for a Run, ops for a repeat); 0 when it carries none.
	Count int64 `json:"count,omitempty"`
}

// open is a span that has begun; the zero value (from a nil lane) is
// inert.
type open struct {
	id, parent int32
	name       string
	start      int64
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int32
	mu     sync.Mutex
	lanes  []*lane
}

// lane is one goroutine's private span buffer, so concurrent clients
// record without sharing a lock.
type lane struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns a fresh buffer for one goroutine; nil on a nil tracer,
// and every method of a nil lane is a no-op, so untraced runs pay a
// nil check per call site and nothing else.
func (t *tracer) lane(capacity int) *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t, spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

func (l *lane) begin(name string, parent int32) open {
	if l == nil {
		return open{}
	}
	return open{
		id:     l.tr.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  int64(time.Since(l.tr.t0)),
	}
}

func (l *lane) end(o open) { l.endCount(o, 0) }

func (l *lane) endCount(o open, count int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		ID: o.id, Parent: o.parent, Name: o.name,
		Start: o.start, End: int64(time.Since(l.tr.t0)), Count: count,
	})
}

// bytes is the memory the recorded spans hold, so a traced run can
// report live heap net of its own tracing.
func (t *tracer) bytes() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, l := range t.lanes {
		n += uint64(cap(l.spans)) * uint64(unsafe.Sizeof(span{}))
	}
	return n
}

// all merges every lane, ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durationsUS returns the duration in µs of every span called name.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span's interval its
	// child spans cover (children running in parallel are merged, so a
	// repeat with 256 client goroutines under it is not charged twice).
	SelfMS float64 `json:"self_ms"`
	Count  int64   `json:"count,omitempty"`
}

func summarize(spans []span) []spanSummary {
	children := map[int32][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byName := map[string]*spanSummary{}
	var order []string
	for _, s := range spans {
		sm := byName[s.Name]
		if sm == nil {
			sm = &spanSummary{Name: s.Name}
			byName[s.Name] = sm
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		sm.Calls++
		sm.TotalMS += float64(dur) / 1e6
		sm.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
		sm.Count += s.Count
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how much of p's interval its children (sorted by
// start, as all() delivers them) cover.
func covered(p span, kids []span) int64 {
	var total, hi int64
	hi = p.Start
	for _, k := range kids {
		lo, end := k.Start, k.End
		if lo < hi {
			lo = hi
		}
		if end > p.End {
			end = p.End
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}

// traceDoc is one workload's spans as written to the -trace file.
type traceDoc struct {
	Workload     string        `json:"workload"`
	OriginUnixNS int64         `json:"origin_unix_ns"`
	Summary      []spanSummary `json:"summary"`
	Spans        []span        `json:"spans"`
}

func (t *tracer) doc(workload string) traceDoc {
	spans := t.all()
	return traceDoc{workload, t.t0.UnixNano(), summarize(spans), spans}
}

// writeTraces stores every workload's spans and per-name summary.
func writeTraces(path string, docs []traceDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Workloads []traceDoc `json:"workloads"`
	}{docs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
