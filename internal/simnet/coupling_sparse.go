package simnet

import (
	"math"
	"math/bits"
	"math/cmplx"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/par"
	"mmx/internal/rf"
	"mmx/internal/units"
)

// This file owns the interference engine, the sparse spatial coupling
// core every fleet size runs on (its dense n×n oracle lives in
// legacy_bench_test.go). Instead of an n×n matrix it keeps a directed
// interference graph: node j has an edge into node i only when j's power
// can provably reach i's receiver above a cutoff anchored at i's noise
// floor. At a cut of 0 — the exact phase, see CouplingAuto — every
// ordered pair of members is an edge. Everything in the network is
// received at the AP, so an edge needs two things at once:
//
//   - the SOURCE must be audible: a conservative, motion-invariant bound
//     on its received power at the AP (pBound, derived below) must clear
//     the victim's threshold. Sources far from the AP fail this for
//     every victim and carry no edges at all — the spatial screen, served
//     by a uniform grid over the room.
//   - the PAIR's frequency-domain factor w (the pairCouplingLinear
//     kernel) must keep pBound·w above the threshold — the frequency
//     screen, served by a per-channel registry (co-channel victims are
//     the channel's occupants; other channels are screened by a
//     conservative ACLR class bound).
//
// Per-victim interference is always re-summed from the node's in-edge
// list when anything feeding it changes — never maintained by scalar
// adds and subtracts, which would drift past the ≤1e-12 equivalence
// discipline. Membership, motion, promotion and crash events mark the
// affected victims dirty; settle() then re-evaluates exactly the dirty
// set, so an event costs O(degree), not O(n).

// CouplingMode selects when the engine starts pruning edges.
type CouplingMode int

const (
	// CouplingAuto runs the engine exactly — a cut of 0, every ordered
	// pair an edge — until membership reaches sparseCrossover, then
	// rebuilds the graph once (one-way) at FromDB(CouplingCutoffDB).
	CouplingAuto CouplingMode = iota
	// CouplingSparse prunes at FromDB(CouplingCutoffDB) from the first
	// join.
	CouplingSparse
)

// sparseCrossover is the membership size where CouplingAuto starts
// pruning. Below it the exact graph costs n(n−1) edges, which small
// fleets afford; it sits above the 500-node membership benchmarks and
// below the 1k rung of BenchmarkNetworkScale, so every rung of the
// scaling curve runs pruned.
const sparseCrossover = 768

// sparseDMin clamps the distance used by the power bound so a node
// placed (pathologically) on top of the AP still gets a finite bound.
const sparseDMin = 0.05 // meters

// inEdge is one source coupling into a victim: the source, the pair's
// linearized coupling factor, and the slot of the mirror outEdge in the
// source's out list (so either side can unhook the pair in O(1)).
type inEdge struct {
	src     *Node
	w       float64
	srcSlot int
}

// outEdge is the mirror half: the victim and the slot of the inEdge in
// its in list.
type outEdge struct {
	dst     *Node
	dstSlot int
}

// spNode is a node's interference-engine state, embedded by value in
// Node and zero while the node is not a member.
type spNode struct {
	in  []inEdge
	out []outEdge
	// avec[k] is the suppression a victim listening on harmonic slot k
	// sees from this node (tmaSuppressionDB of own vs leaked amplitude in
	// the node's gain table), the per-occupant vector behind the indexed
	// bestHostChannel.
	avec []float64
	// pBound is the conservative ceiling on the node's received power at
	// the AP (watts) — motion-invariant until the node itself moves.
	pBound float64
	// noise is the node's receiver noise floor (bandwidth-dependent).
	noise float64
	// power is the node's actual received power at its serving AP from
	// the last link evaluation; interf the last interference re-sum.
	power  float64
	interf float64
	// outPerAP counts, per AP index, the node's out-edges into victims
	// served there; xpower caches the node's received power at each such
	// foreign AP, refreshed by the eval pass whenever the count is
	// nonzero. Both stay nil until the node's first cross-AP edge, so
	// single-AP runs carry no per-node overhead.
	outPerAP []int
	xpower   []float64
	eval     core.Evaluation
	rep      Report
	// grid and channel-registry bookkeeping (swap-remove slots).
	cell     int
	cellSlot int
	cs       *chanState
	chanHarm int
	chanSlot int
	// dirty flags: queued dedups membership in the dirty list.
	sumDirty  bool
	evalStale bool
	queued    bool
	// powerMoved records, within one settle, that the eval pass changed
	// the node's received power — its victims must re-sum.
	powerMoved bool
}

// chanState is the registry entry for one channel center: its occupants
// bucketed by harmonic slot, the bitmask of the slots that have any
// (occMask: bit k of word k/64 ⇔ len(occ[k]) > 0, kept by chanRegister
// and chanUnregister), and the per-slot minimum of the occupants' avec
// vectors (minA) — together what makes bestHostChannel O(#channels) per
// call.
type chanState struct {
	center   float64
	maxWidth float64 // never shrunk: conservative for the class screen
	ap       int     // owning shard: occupants are served by this AP
	count    int
	occ      [][]*Node
	occMask  []uint64
	minA     []float64
	// minADirty marks minA for lazy rebuild after an occupant left
	// (removals can raise a minimum; additions only lower it).
	minADirty bool
	listIdx   int
}

// sparseShard is one AP's slice of the channel registry: only nodes
// served by that AP live in its channels, so an AP's settle work and
// bestHostChannel scan are bounded by its own coverage domain.
// Cross-shard interference is not lost — it is admitted as ordinary
// sparse edges between nodes of different shards (see discoverIn /
// discoverOut), with the power term re-anchored at the victim's AP.
type sparseShard struct {
	chans    map[float64]*chanState
	chanList []*chanState
}

// sparseState is the per-network interference engine. All scratch
// slices are retained across events so a churning run stays
// allocation-flat once warm.
type sparseState struct {
	// exact marks the phase that stores every ordered pair: cut is 0 and
	// pC +Inf, so no screen can drop one and the disc query covers every
	// cell. The power bound is derived only when pruning starts, since
	// NodeBeams and LinkCfg may change until then.
	exact    bool
	cut      float64 // linear edge-admission cutoff (FromDB(CouplingCutoffDB))
	pC       float64 // pBound numerator: power ≤ pC / max(d,dMin)²
	minNoise float64 // conservative (never-raised) min noise floor
	maxM     int

	// Uniform grid over the room for audible-source disc queries.
	nx, ny       int
	cellW, cellH float64
	cells        [][]*Node

	// shards holds the per-AP channel registries, indexed by AP index;
	// nAPs sizes the per-node cross-AP bookkeeping vectors.
	shards []sparseShard
	nAPs   int

	dirty    []*Node
	envEpoch uint64

	// listeners[j] bounds every position at which a node started to cache
	// a link towards AP j: it grows in gridInsert for the serving AP and
	// in addEdge when outPerAP[j] leaves 0, and never shrinks, so it holds
	// every node listening to j now. It scopes the swept-region walk
	// (region.go) to the nodes a corridor towards j can dirty.
	listeners []box

	// The mapping fan-out (region.go): a tick's corridors, its work items,
	// one lane per worker, and the item function, built once per core so a
	// tick allocates no closure.
	corridorScratch []corridor
	mapItems        []mapItem
	mapLanes        []mapLane
	mapFn           func(lane, i int)

	// scratch, reused across calls
	workScratch  []*Node
	bvec         []float64
	sweptScratch []channel.SweptRegion
}

// core returns the interference engine, built at first need for the
// current membership — the one place a network without one gets one.
func (nw *Network) core() *sparseState {
	if nw.sparse == nil {
		nw.enterSparse()
	}
	return nw.sparse
}

// enterSparse builds the engine for the current membership, exact while
// CouplingAuto is below sparseCrossover and pruned otherwise. Rebuilding
// an exact graph pruned is one-way: nothing builds an exact one again.
func (nw *Network) enterSparse() {
	s := newSparseState(nw, nw.couplingMode == CouplingAuto && len(nw.Nodes) < sparseCrossover)
	nw.sparse = s
	for _, n := range nw.Nodes {
		n.sp = spNode{} // drop any state from an earlier graph
		s.registerNode(n)
	}
	// Victim-side discovery visits every directed pair exactly once.
	for _, n := range nw.Nodes {
		s.discoverIn(nw, n)
		s.markEvalStale(n)
	}
}

func newSparseState(nw *Network, exact bool) *sparseState {
	room := nw.Env.Room
	nx, ny := 128, 128
	cut, pC := 0.0, math.Inf(1)
	if !exact {
		cut, pC = units.FromDB(nw.CouplingCutoffDB), nw.sparsePowerBoundConst()
	}
	s := &sparseState{
		exact:     exact,
		cut:       cut,
		pC:        pC,
		minNoise:  math.Inf(1),
		maxM:      nw.APs[0].SDM.MaxHarmonic(),
		nx:        nx,
		ny:        ny,
		cellW:     room.Width / float64(nx),
		cellH:     room.Height / float64(ny),
		cells:     make([][]*Node, nx*ny),
		shards:    make([]sparseShard, len(nw.APs)),
		nAPs:      len(nw.APs),
		envEpoch:  nw.Env.Epoch(),
		listeners: make([]box, len(nw.APs)),
	}
	for i := range s.shards {
		s.shards[i].chans = make(map[float64]*chanState)
		s.listeners[i] = emptyBox()
	}
	return s
}

// sparsePowerBoundConst derives the numerator of the conservative
// received-power bound pBound(d) = pC / max(d, dMin)². For any node at
// planar distance d from the AP, its peak received power satisfies
//
//	peak² ≤ [amp · (sel+leak) · Gt · Gr · (λ/4π) · M]² / d²
//
// because every propagation path is at least d long, the elevation
// factor is ≤1, blockage only subtracts, and the image-method path set
// contributes at most M = 1 + Σr + (Σr)² times the LoS spreading term
// (r summed over every wall's field reflection coefficient: ≤Σr across
// single bounces, ≤(Σr)² across ordered double bounces). Gt and Gr are
// the pattern maxima of the node beams and the AP antenna, found by
// dense angular sampling with headroom for the sampling grid. The bound
// deliberately over-estimates by tens of dB — it only has to be sound
// and motion-invariant, since it gates which pairs are *stored*, not
// what they contribute.
func (nw *Network) sparsePowerBoundConst() float64 {
	const samples = 4096
	gt, gr := 0.0, 0.0
	for k := 0; k < samples; k++ {
		th := 2 * math.Pi * float64(k) / samples
		if a := cmplx.Abs(nw.NodeBeams.Beam0.FieldGain(th)); a > gt {
			gt = a
		}
		if a := cmplx.Abs(nw.NodeBeams.Beam1.FieldGain(th)); a > gt {
			gt = a
		}
		// gr bounds the receive gain of EVERY AP at once (float max is
		// order-free, so with one AP this is the old single-pattern scan).
		for _, ap := range nw.APs {
			if a := cmplx.Abs(ap.Pattern.FieldGain(th)); a > gr {
				gr = a
			}
		}
	}
	// Headroom for the angular sampling grid (the patterns are smooth,
	// low-order shapes; 5% in field ≈ 0.4 dB in power).
	gt *= 1.05
	gr *= 1.05
	refl := 0.0
	room := nw.Env.Room
	for _, w := range room.Walls {
		refl += math.Pow(10, -w.ReflectionLossDB/20)
	}
	for _, w := range room.Interior {
		refl += math.Pow(10, -w.ReflectionLossDB/20)
	}
	margin := 1 + refl + refl*refl
	amp := math.Sqrt(units.FromDBm(nw.LinkCfg.TxPowerDBm)) *
		math.Pow(10, -nw.LinkCfg.ImplementationLossDB/20)
	// Switch field gains: selected path plus the leaked port, both
	// arriving coherently in the worst case. Every link comes from
	// newLink, which installs the ADRF5020 model.
	sw := rf.NewADRF5020()
	sel, leak := sw.SelectedGain(), sw.LeakageGain()
	lam := units.Wavelength(nw.Env.FreqHz)
	field := amp * (sel + leak) * gt * gr * (lam / (4 * math.Pi)) * margin
	return field * field * 1.1 // final safety factor on the power bound
}

// registerNode installs a node into the grid, the channel registry and
// the noise tracking. It does not discover edges.
func (s *sparseState) registerNode(n *Node) {
	s.setGeometry(n)
	n.sp.noise = n.Link.Cfg.NoisePowerW()
	if n.sp.noise < s.minNoise {
		s.minNoise = n.sp.noise
	}
	s.gridInsert(n)
	s.chanRegister(n)
}

// setGeometry refreshes what the sparse core derives from the node's
// pose, its serving AP and its harmonic slot: the avec suppression vector
// (from the gain table aimAt left on the node, at the angle of arrival at
// THAT AP) and the power bound (anchored at that AP). A roam re-runs this
// through registerNode after the association flips.
func (s *sparseState) setGeometry(n *Node) {
	if cap(n.sp.avec) < len(n.tbl) {
		n.sp.avec = make([]float64, len(n.tbl))
	}
	n.sp.avec = n.sp.avec[:len(n.tbl)]
	own := cmplx.Abs(n.tbl[n.SDMHarmonic+s.maxM])
	for k := range n.sp.avec {
		n.sp.avec[k] = tmaSuppressionDB(own, cmplx.Abs(n.tbl[k]))
	}
	n.sp.pBound = s.pBoundAt(n.Pose.Pos, n.AP)
}

// pBoundAt anchors the conservative received-power bound at an arbitrary
// AP — the cross-shard analogue of the pBound cached by setGeometry. The
// float operations are identical, so evaluated at a node's own serving
// AP it reproduces the cached value bit-for-bit.
func (s *sparseState) pBoundAt(p channel.Vec2, ap *AccessPoint) float64 {
	d := p.Dist(ap.Pose.Pos)
	if d < sparseDMin {
		d = sparseDMin
	}
	return s.pC / (d * d)
}

// --- grid ---

// cellIndex is the grid cell of position p; positions outside the room
// clamp into the boundary cells.
func (s *sparseState) cellIndex(p channel.Vec2) int {
	return clampCell(p.Y, s.cellH, s.ny)*s.nx + clampCell(p.X, s.cellW, s.nx)
}

func (s *sparseState) gridInsert(n *Node) {
	p := n.Pose.Pos
	s.listeners[n.AP.idx].grow(p)
	c := s.cellIndex(p)
	n.sp.cell = c
	n.sp.cellSlot = len(s.cells[c])
	s.cells[c] = append(s.cells[c], n)
}

func (s *sparseState) gridRemove(n *Node) {
	c, sl := n.sp.cell, n.sp.cellSlot
	lst := s.cells[c]
	last := len(lst) - 1
	if sl != last {
		lst[sl] = lst[last]
		lst[sl].sp.cellSlot = sl
	}
	lst[last] = nil
	s.cells[c] = lst[:last]
}

// forEachInDisc visits every node whose grid cell intersects the disc of
// radius r around p. Cells are screened by rectangle-to-point distance;
// individual nodes inside a surviving cell are NOT distance-filtered —
// callers re-check admission exactly, so the disc only has to be a
// superset. r = +Inf (a cut of 0) visits every cell.
func (s *sparseState) forEachInDisc(p channel.Vec2, r float64, fn func(*Node)) {
	ix0, ix1 := cellSpan(p.X, r, s.cellW, s.nx)
	iy0, iy1 := cellSpan(p.Y, r, s.cellH, s.ny)
	r2 := r * r
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			// Nearest point of the cell rectangle to p.
			dx := 0.0
			if x0 := float64(ix) * s.cellW; p.X < x0 {
				dx = x0 - p.X
			} else if x1 := float64(ix+1) * s.cellW; p.X > x1 {
				dx = p.X - x1
			}
			dy := 0.0
			if y0 := float64(iy) * s.cellH; p.Y < y0 {
				dy = y0 - p.Y
			} else if y1 := float64(iy+1) * s.cellH; p.Y > y1 {
				dy = p.Y - y1
			}
			if dx*dx+dy*dy > r2 {
				continue
			}
			for _, n := range s.cells[iy*s.nx+ix] {
				fn(n)
			}
		}
	}
}

// cellSpan returns the first and last of n cells of width w that the
// interval [c−r, c+r] touches (lo > hi when it misses them all). The
// clamp runs in float: Go leaves a float-to-int conversion
// implementation-defined when the value does not fit, and a deep
// cutoff's radius does not.
func cellSpan(c, r, w float64, n int) (lo, hi int) {
	clamp := func(x, a, b float64) int { return int(math.Min(math.Max(x, a), b)) }
	return clamp(math.Floor((c-r)/w), 0, float64(n)), clamp(math.Floor((c+r)/w), -1, float64(n-1))
}

// --- channel registry ---

func (s *sparseState) chanRegister(n *Node) {
	sh := &s.shards[n.AP.idx]
	c := n.Assignment.CenterHz
	cs := sh.chans[c]
	if cs == nil {
		slots := 2*s.maxM + 1
		cs = &chanState{
			center:  c,
			ap:      n.AP.idx,
			occ:     make([][]*Node, slots),
			occMask: make([]uint64, (slots+63)/64),
			minA:    make([]float64, slots),
			listIdx: len(sh.chanList),
		}
		for k := range cs.minA {
			cs.minA[k] = math.Inf(1)
		}
		sh.chans[c] = cs
		sh.chanList = append(sh.chanList, cs)
	}
	if n.Assignment.WidthHz > cs.maxWidth {
		cs.maxWidth = n.Assignment.WidthHz
	}
	h := n.SDMHarmonic + s.maxM
	n.sp.cs = cs
	n.sp.chanHarm = h
	n.sp.chanSlot = len(cs.occ[h])
	cs.occ[h] = append(cs.occ[h], n)
	cs.occMask[h/64] |= 1 << (h % 64)
	cs.count++
	for k := range cs.minA {
		if n.sp.avec[k] < cs.minA[k] {
			cs.minA[k] = n.sp.avec[k]
		}
	}
}

func (s *sparseState) chanUnregister(n *Node) {
	cs := n.sp.cs
	if cs == nil {
		return
	}
	h, sl := n.sp.chanHarm, n.sp.chanSlot
	lst := cs.occ[h]
	last := len(lst) - 1
	if sl != last {
		lst[sl] = lst[last]
		lst[sl].sp.chanSlot = sl
	}
	lst[last] = nil
	cs.occ[h] = lst[:last]
	if last == 0 {
		cs.occMask[h/64] &^= 1 << (h % 64)
	}
	cs.count--
	cs.minADirty = true
	n.sp.cs = nil
	if cs.count == 0 {
		sh := &s.shards[cs.ap]
		li := cs.listIdx
		lastC := len(sh.chanList) - 1
		if li != lastC {
			sh.chanList[li] = sh.chanList[lastC]
			sh.chanList[li].listIdx = li
		}
		sh.chanList[lastC] = nil
		sh.chanList = sh.chanList[:lastC]
		delete(sh.chans, cs.center)
	}
}

func (s *sparseState) rebuildMinA(cs *chanState) {
	for k := range cs.minA {
		cs.minA[k] = math.Inf(1)
	}
	for _, lst := range cs.occ {
		for _, v := range lst {
			for k := range cs.minA {
				if v.sp.avec[k] < cs.minA[k] {
					cs.minA[k] = v.sp.avec[k]
				}
			}
		}
	}
	cs.minADirty = false
}

// classBoundLinear is the conservative linear ceiling on the frequency
// coupling factor between a channel at (c0,w0) and ANY occupant of the
// registry channel cs: using cs.maxWidth in both the overlap and the
// adjacency test can only move the classification toward the louder
// class, so the returned bound dominates freqCoupling's per-pair
// answer for every actual occupant width ≤ maxWidth.
func (nw *Network) classBoundLinear(c0, w0 float64, cs *chanState) float64 {
	sep := math.Abs(c0 - cs.center)
	half := (w0 + cs.maxWidth) / 2
	if sep < half {
		return 1 // could overlap: full collision is possible
	}
	if sep-half < math.Min(w0, cs.maxWidth) {
		return aclrAdjacent
	}
	return aclrFar
}

// --- edges ---

func (s *sparseState) markDirty(n *Node) {
	n.sp.sumDirty = true
	if !n.sp.queued {
		n.sp.queued = true
		s.dirty = append(s.dirty, n)
	}
}

func (s *sparseState) markEvalStale(n *Node) {
	n.sp.evalStale = true
	s.markDirty(n)
}

func (s *sparseState) addEdge(src, dst *Node, w float64) {
	si := len(src.sp.out)
	di := len(dst.sp.in)
	src.sp.out = append(src.sp.out, outEdge{dst: dst, dstSlot: di})
	dst.sp.in = append(dst.sp.in, inEdge{src: src, w: w, srcSlot: si})
	if da := dst.AP.idx; da != src.AP.idx {
		if src.sp.outPerAP == nil {
			src.sp.outPerAP = make([]int, s.nAPs)
			src.sp.xpower = make([]float64, s.nAPs)
		}
		src.sp.outPerAP[da]++
		if src.sp.outPerAP[da] == 1 {
			// First victim at that AP: the source's cached xpower[da] has
			// never been computed (or went stale while unreferenced), so
			// force an eval pass over it before the victim re-sums. The
			// source now listens to da.
			s.markEvalStale(src)
			s.listeners[da].grow(src.Pose.Pos)
		}
	}
	s.markDirty(dst)
}

// noteUnhook reverses addEdge's cross-AP bookkeeping for a pair about to
// be unhooked. Edges are always torn down before an endpoint's
// association changes (roamDetach runs under the old AP), so the AP
// indexes seen here match the ones addEdge counted.
func (s *sparseState) noteUnhook(src, dst *Node) {
	if da := dst.AP.idx; da != src.AP.idx && src.sp.outPerAP != nil {
		src.sp.outPerAP[da]--
	}
}

// removeOutEdgeAt unhooks src.out[si] and its mirror in-edge, fixing the
// slot pointers of whichever edges the swap-removes displaced.
func (s *sparseState) removeOutEdgeAt(src *Node, si int) {
	e := src.sp.out[si]
	dst, di := e.dst, e.dstSlot
	s.noteUnhook(src, dst)
	last := len(dst.sp.in) - 1
	if di != last {
		moved := dst.sp.in[last]
		dst.sp.in[di] = moved
		moved.src.sp.out[moved.srcSlot].dstSlot = di
	}
	dst.sp.in = dst.sp.in[:last]
	lastO := len(src.sp.out) - 1
	if si != lastO {
		movedO := src.sp.out[lastO]
		src.sp.out[si] = movedO
		movedO.dst.sp.in[movedO.dstSlot].srcSlot = si
	}
	src.sp.out = src.sp.out[:lastO]
	s.markDirty(dst)
}

// removeInEdgeAt unhooks dst.in[di] and its mirror out-edge.
func (s *sparseState) removeInEdgeAt(dst *Node, di int) {
	e := dst.sp.in[di]
	src, si := e.src, e.srcSlot
	s.noteUnhook(src, dst)
	lastO := len(src.sp.out) - 1
	if si != lastO {
		movedO := src.sp.out[lastO]
		src.sp.out[si] = movedO
		movedO.dst.sp.in[movedO.dstSlot].srcSlot = si
	}
	src.sp.out = src.sp.out[:lastO]
	last := len(dst.sp.in) - 1
	if di != last {
		moved := dst.sp.in[last]
		dst.sp.in[di] = moved
		moved.src.sp.out[moved.srcSlot].dstSlot = di
	}
	dst.sp.in = dst.sp.in[:last]
	s.markDirty(dst)
}

// clearEdges drops every edge touching n, marking the affected victims
// dirty. Removing from the back keeps every removal swap-free.
func (s *sparseState) clearEdges(n *Node) {
	for len(n.sp.out) > 0 {
		s.removeOutEdgeAt(n, len(n.sp.out)-1)
	}
	for len(n.sp.in) > 0 {
		s.removeInEdgeAt(n, len(n.sp.in)-1)
	}
}

// discoverIn finds every source audible to victim v: a grid disc query
// around v's SERVING AP bounds the candidate set (v's receiver lives
// there; anything outside the disc has a power bound below cut·noise
// even at w=1), then each candidate is admitted exactly through the
// shared pair kernel. A candidate served by another AP carries a bound
// anchored at ITS AP, so the screen re-anchors it at v's — that is the
// only extra work the multi-AP case adds to this path.
func (s *sparseState) discoverIn(nw *Network, v *Node) {
	threshold := s.cut * v.sp.noise
	r := math.Sqrt(s.pC / threshold)
	if r < sparseDMin {
		r = sparseDMin
	}
	apV := v.AP
	vi := apV.idx
	s.forEachInDisc(apV.Pose.Pos, r, func(j *Node) {
		if j == v {
			return
		}
		pb := j.sp.pBound
		if j.AP.idx != vi {
			pb = s.pBoundAt(j.Pose.Pos, apV)
		}
		if pb < threshold {
			return
		}
		w := nw.pairCouplingLinear(v, j)
		if pb*w >= threshold {
			s.addEdge(j, v, w)
		}
	})
}

// discoverOut finds every victim source u can reach, one shard at a
// time: victims in shard a hear u at AP a, so u's power bound is
// re-anchored there before the screens run. Each shard's channels are
// screened first by the conservative ACLR class bound against the
// network's lowest noise floor, then each surviving occupant admitted
// exactly. An inaudible source (re-anchored bound below even the w=1
// threshold) skips that shard's walk entirely — the common case for
// shards whose AP sits across the floor.
func (s *sparseState) discoverOut(nw *Network, u *Node) {
	ui := u.AP.idx
	for ai := range s.shards {
		pb := u.sp.pBound
		if ai != ui {
			pb = s.pBoundAt(u.Pose.Pos, nw.APs[ai])
		}
		if pb < s.cut*s.minNoise {
			continue
		}
		for _, cs := range s.shards[ai].chanList {
			wMax := nw.classBoundLinear(u.Assignment.CenterHz, u.Assignment.WidthHz, cs)
			if pb*wMax < s.cut*s.minNoise {
				continue
			}
			for _, lst := range cs.occ {
				for _, v := range lst {
					if v == u {
						continue
					}
					w := nw.pairCouplingLinear(v, u)
					if pb*w >= s.cut*v.sp.noise {
						s.addEdge(u, v, w)
					}
				}
			}
		}
	}
}

// --- membership / assignment / motion hooks ---

// addNode hooks n in: a joiner, or a roamer under its new association.
func (s *sparseState) addNode(nw *Network, n *Node) {
	s.registerNode(n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.markEvalStale(n)
}

// removeNode drops a leaver: detach, then forget its state.
func (s *sparseState) removeNode(n *Node) {
	s.detach(n)
	n.sp = spNode{}
}

// detach clears n's edges, grid slot and channel entry but keeps its
// cached evaluation. The core keys cross-AP edge counters and channel
// shards on the serving AP, so a roam detaches under the old association
// and re-adds (addNode) once the new one and its assignment are in place.
func (s *sparseState) detach(n *Node) {
	s.clearEdges(n)
	s.gridRemove(n)
	s.chanUnregister(n)
}

// updateNode handles an assignment or SDM-role change at a fixed pose
// (promotion, renew re-sync, reboot rejoin): re-register the channel,
// refresh the noise floor (the bandwidth may have changed) and the avec
// vector (a re-run handshake can land on a different harmonic), and
// rebuild the node's edges both ways.
func (s *sparseState) updateNode(nw *Network, n *Node) {
	s.chanUnregister(n)
	s.setGeometry(n)
	n.sp.noise = n.Link.Cfg.NoisePowerW()
	if n.sp.noise < s.minNoise {
		s.minNoise = n.sp.noise
	}
	s.chanRegister(n)
	s.clearEdges(n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.markEvalStale(n)
}

// moveNode handles a pose change: new avec (the gain table moved with the
// node) and power bound, new grid cell, possibly a new harmonic bucket,
// and a full edge rebuild for the moved node (everyone else's edges are
// pose-independent).
func (s *sparseState) moveNode(nw *Network, n *Node) {
	s.gridRemove(n)
	s.chanUnregister(n)
	s.setGeometry(n)
	s.gridInsert(n)
	s.chanRegister(n)
	s.clearEdges(n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.markEvalStale(n)
}

// powerChanged handles a transmit-state flip with no assignment change
// (crash): the node's victims must re-sum without it, and its own report
// flips to the down sentinel. Edges stay — a reboot restores them as-is.
func (s *sparseState) powerChanged(n *Node) {
	for i := range n.sp.out {
		s.markDirty(n.sp.out[i].dst)
	}
	s.markDirty(n)
}

// --- evaluation ---

// syncEnv folds environment changes since the last settle into the
// dirty set: each blocker change's swept capsule is mapped through the
// grid corridors (region.go) and only the nodes with a path leg whose
// blockage it flipped go stale — everyone else keeps their cached
// evaluation bit-identically.
// A consumer that outlived the environment's bounded swept log cannot
// know where changes happened and stales everything, which is always
// sound.
func (s *sparseState) syncEnv(nw *Network) {
	ep := nw.Env.Epoch()
	if ep == s.envEpoch {
		return
	}
	from := s.envEpoch
	s.envEpoch = ep
	if !nw.staleEveryTick {
		regions, ok := nw.Env.SweptSince(from, s.sweptScratch[:0])
		s.sweptScratch = regions[:0]
		if ok {
			s.mapRegions(nw, regions)
			return
		}
	}
	s.staleAll(nw)
}

// staleAll marks the whole membership for re-evaluation.
func (s *sparseState) staleAll(nw *Network) {
	s.dirty = s.dirty[:0]
	for _, n := range nw.Nodes {
		n.sp.evalStale = true
		n.sp.sumDirty = true
		n.sp.queued = true
		s.dirty = append(s.dirty, n)
	}
}

// settle brings every dirty node's cached report up to date: the eval
// pass re-runs the link evaluations (the ray-tracing hot path) for
// nodes whose geometry or environment changed, the finish pass re-sums
// interference rows and rebuilds reports. Both passes fan out over the
// worker pool; each node writes only its own state, so results are
// order-independent. An event settles in O(dirty degree); an
// environment step in O(nodes the blockers' swept regions can affect).
func (s *sparseState) settle(nw *Network) {
	s.syncEnv(nw)
	if len(s.dirty) == 0 {
		return
	}
	s.runEvalPass(nw)
	s.finishDirty(nw)
}

// runEvalPass re-evaluates the stale members of the dirty set in
// parallel, then (serially, so the dirty list grows deterministically at
// any worker count) queues the victims of every node whose received
// power actually changed — their interference rows are stale too.
func (s *sparseState) runEvalPass(nw *Network) {
	work := s.workScratch[:0]
	for _, n := range s.dirty {
		if nw.nodeIdx[n.ID] != n {
			continue // left (or was replaced) while queued
		}
		if n.sp.evalStale {
			work = append(work, n)
		}
	}
	par.For(nw.Workers, len(work), func(_, i int) {
		n := work[i]
		n.sp.evalStale = false
		oldPower := n.sp.power
		if n.Down {
			n.sp.power = 0
		} else {
			n.sp.eval = n.Link.EvaluateWithClass()
			g := math.Max(cmplx.Abs(n.sp.eval.G0), cmplx.Abs(n.sp.eval.G1))
			n.sp.power = g * g
		}
		moved := n.sp.power != oldPower
		// Refresh the node's received power at every foreign AP it has
		// victims at (cross-shard edges). Down sources are skipped: their
		// victims skip them in the re-sum, exactly like the serving path.
		if n.sp.outPerAP != nil && !n.Down {
			ai := n.AP.idx
			for a, cnt := range n.sp.outPerAP {
				if cnt <= 0 || a == ai {
					continue
				}
				if p := nw.crossPower(n, a); p != n.sp.xpower[a] {
					n.sp.xpower[a] = p
					moved = true
				}
			}
		}
		n.sp.powerMoved = moved
	})
	for _, n := range work {
		if !n.sp.powerMoved {
			continue
		}
		for i := range n.sp.out {
			s.markDirty(n.sp.out[i].dst)
		}
	}
	s.workScratch = work[:0]
}

// finishDirty re-sums and rebuilds the report of every queued node, then
// resets the dirty set.
func (s *sparseState) finishDirty(nw *Network) {
	dirty := s.dirty
	par.For(nw.Workers, len(dirty), func(_, i int) {
		n := dirty[i]
		if nw.nodeIdx[n.ID] != n {
			return
		}
		n.sp.queued = false
		if !n.sp.sumDirty {
			return
		}
		n.sp.sumDirty = false
		s.finishNode(n)
	})
	s.dirty = dirty[:0]
}

// finishNode re-sums one victim's interference row from scratch and
// rebuilds its report. Always a fresh sum — incremental ± maintenance
// would accumulate rounding drift past the equivalence tolerance.
func (s *sparseState) finishNode(n *Node) {
	if n.Down {
		n.sp.interf = 0
		n.sp.rep = Report{
			ID: n.ID, SNRdB: math.Inf(-1), SINRdB: math.Inf(-1),
			BER: 1, PathClass: "down", SDM: n.Shared,
		}
		return
	}
	interf := 0.0
	vi := n.AP.idx
	for i := range n.sp.in {
		e := &n.sp.in[i]
		if e.src.Down {
			continue // a crashed source puts no carrier on the air
		}
		p := e.src.sp.power
		if e.src.AP.idx != vi {
			// Cross-shard source: its power at THIS victim's AP, not at
			// its own serving AP. The eval pass keeps xpower[vi] fresh for
			// as long as the edge exists (outPerAP[vi] > 0).
			p = e.src.sp.xpower[vi]
		}
		interf += p * e.w
	}
	n.sp.interf = interf
	noise := n.sp.eval.NoisePowerW
	p := n.sp.power
	sinr := units.DB(p / (noise + interf))
	ev := n.sp.eval
	ev.SNRWithOTAM = sinr
	n.sp.rep = Report{
		ID:        n.ID,
		SNRdB:     units.DB(p / noise),
		SINRdB:    sinr,
		BER:       ev.BERWithOTAM(),
		PathClass: ev.PathClass,
		SDM:       n.Shared,
	}
}

// --- indexed bestHostChannel ---

// bestHostChannel picks, among the channels live at AP ap, the one whose
// occupants that AP's TMA can best separate from a newcomer at harmonic h
// and gain table tbl — maximizing the worst-case pairwise suppression,
// ties to fewer occupants, then the lower center. The exclude ID skips the
// newcomer itself, so a node re-running the handshake (reboot,
// post-restart rejoin) does not count its own entry as an occupant. ok is
// false when the AP hosts no channels yet. Per channel, the worst-case
// suppression is
//
//	min over occupants v of min(a_v, b_v)
//	  = min( min_v a_v , min_v b_v )
//	  = min( minA[h] , min over occupied slots k of bvec[k] )
//
// with a_v the occupant-side leak (precomputed avec vectors, folded into
// the channel's minA) and b_v the newcomer-side leak (one bvec per
// call). The occupied slots are the set bits of the channel's occMask, so
// the second term walks one word per 64 slots and the slots that hold
// someone, never the per-slot occupant lists. Float min is exact and
// order-free, and the selection is a strict total order, so the result is
// bit-identical to the all-members scan of the oracle
// (denseBestHostChannel). The excluded node's channel falls back to a
// direct occupant scan. Only the admitting AP's shard is walked — SDM
// sharing is an intra-array affair, so occupants of other APs never
// constrain the choice.
func (s *sparseState) bestHostChannel(nw *Network, ap *AccessPoint, h int, tbl []complex128, exclude uint32) (float64, bool) {
	chanList := s.shards[ap.idx].chanList
	if len(chanList) == 0 {
		return 0, false
	}
	own := cmplx.Abs(tbl[h+s.maxM])
	if cap(s.bvec) < len(tbl) {
		s.bvec = make([]float64, len(tbl))
	}
	bvec := s.bvec[:len(tbl)]
	for k := range bvec {
		bvec[k] = tmaSuppressionDB(own, cmplx.Abs(tbl[k]))
	}
	exNode := nw.nodeIdx[exclude]
	bestCenter, found := 0.0, false
	bestSupp, bestOcc := 0.0, 0
	for _, cs := range chanList {
		occ := cs.count
		var supp float64
		if exNode != nil && exNode.sp.cs == cs {
			occ--
			if occ == 0 {
				continue // only the excluded node holds it: no channel to share
			}
			supp = math.Inf(1)
			for _, lst := range cs.occ {
				for _, v := range lst {
					if v == exNode {
						continue
					}
					m := math.Min(v.sp.avec[h+s.maxM], bvec[v.sp.chanHarm])
					if m < supp {
						supp = m
					}
				}
			}
		} else {
			if cs.minADirty {
				s.rebuildMinA(cs)
			}
			supp = cs.minA[h+s.maxM]
			for wi, word := range cs.occMask {
				for ; word != 0; word &= word - 1 {
					if b := bvec[wi*64+bits.TrailingZeros64(word)]; b < supp {
						supp = b
					}
				}
			}
		}
		better := !found ||
			supp > bestSupp ||
			(supp == bestSupp && occ < bestOcc) ||
			(supp == bestSupp && occ == bestOcc && cs.center < bestCenter)
		if better {
			bestCenter, bestSupp, bestOcc, found = cs.center, supp, occ, true
		}
	}
	return bestCenter, found
}
