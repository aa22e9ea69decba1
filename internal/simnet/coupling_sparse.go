package simnet

import (
	"math"
	"math/cmplx"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/par"
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
	// rebuilds the graph once (one-way), pruning at the noise floor.
	CouplingAuto CouplingMode = iota
	// CouplingSparse prunes at the noise floor from the first join.
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
	// pBound is the conservative ceiling on the node's received power at
	// the AP (watts) — motion-invariant until the node itself moves.
	pBound float64
	// noise is the node's receiver noise floor (bandwidth-dependent).
	noise float64
	// power and class are the node's peak received power at its serving
	// AP and its path class, from the last link evaluation.
	power float64
	class string
	// cross holds, per AP index, the node's out-edges into victims served
	// there, whether a roam check watches the AP, and the node's received
	// power at that foreign AP, refreshed by the eval pass while the entry
	// is live. It stays nil until the node's first cross-AP edge or watch,
	// so single-AP runs carry no per-node overhead.
	cross []crossAP
	// rep is the report the last finish pass built: the SNR the roam check
	// compares, the SINR the tick rates at, the BER fireFrame draws from
	// and the class the roam screen reads. It is stored, not derived from
	// power and class, because a roam's promotions re-seed other members'
	// power in the middle of a check that reads the reports it began with.
	rep linkReport
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

// crossAP is a node's book on one foreign AP: how many of its out-edges
// reach victims served there, whether a roam check traced the node
// towards it (watch), and its received power at that AP. An entry with
// either is live: the node caches the power, so region mapping stales the
// node when that link changes and the eval pass refreshes it. Only edges
// have readers in the interference sums; a watch is read by the next roam
// check instead of a trace.
type crossAP struct {
	edges int32
	watch bool
	power float64
}

// live reports whether the node caches its power at this AP.
func (x *crossAP) live() bool { return x.edges > 0 || x.watch }

// linkReport is what a settle leaves of a node's Report: the fields that
// are not read off the Node itself (EvaluateSINR adds ID and SDM).
type linkReport struct {
	SNRdB, SINRdB, BER float64
	PathClass          string
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
	// cell. The power bound is derived only when pruning starts; it reads
	// NodeBeams, the link template and the APs' Patterns, which are fixed once the
	// first node joins.
	exact    bool
	cut      float64 // linear edge-admission cutoff (FromDB(cutoffDB))
	pC       float64 // pBound numerator: power ≤ pC / max(d,dMin)²
	minNoise float64 // conservative (never-raised) min noise floor
	maxM     int

	// Uniform grid over the room for audible-source disc queries.
	nx, ny       int
	cellW, cellH float64
	cells        [][]gridSlot

	// shards holds the per-AP channel registries, indexed by AP index;
	// nAPs sizes the per-node cross-AP bookkeeping vectors.
	shards []sparseShard
	nAPs   int

	dirty    []*Node
	envEpoch uint64

	// listeners[j] bounds every position at which a node started to cache
	// a link towards AP j, and spans[j*ny+iy] the columns of grid row iy
	// such a node's cell lay in: both grow at listenAt — in gridInsert for
	// the serving AP, in addEdge when cross[j].edges leaves 0 and in watch
	// — and shrink only when Run's start rebuilds them from the members
	// (listen), so they hold every node listening to j now. They scope the
	// swept-region walk (region.go) to the cells a corridor towards j can
	// dirty a node in.
	listeners []box
	spans     []colSpan

	// The mapping fan-out (region.go): a tick's corridors, its work items,
	// one lane per worker (the eval pass counts in them too), and the item
	// function, built once per core so a tick allocates no closure.
	corridorScratch []corridor
	mapItems        []mapItem
	lanes           []workLane
	mapFn           func(lane, i int)
	// The eval and finish passes' item functions, built once per core
	// for the same reason: they index workScratch and dirty.
	evalFn, finishFn func(lane, i int)

	// scratch, reused across calls
	workScratch  []*Node
	inScratch    []inEdge
	slotOrder    []int
	sweptScratch []channel.SweptRegion
}

// gridSlot is one node's entry in its grid cell: the node and, beside it,
// what discoverIn screens a candidate on — its power bound and its
// channel registry entry (whose ap field is the node's serving AP) — so a
// candidate the screens reject is never loaded. chanRegister writes the
// screened fields; every path that changes either of them ends in it. A
// nil cs marks a node whose grant left its registered channel (unscreen):
// discoverIn loads it and runs the kernel on the grant itself.
type gridSlot struct {
	n      *Node
	pBound float64
	cs     *chanState
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
		s.registerNode(nw, n)
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
		cut, pC = units.FromDB(nw.cutoffDB), nw.sparsePowerBoundConst()
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
		cells:     make([][]gridSlot, nx*ny),
		shards:    make([]sparseShard, len(nw.APs)),
		nAPs:      len(nw.APs),
		envEpoch:  nw.Env.Epoch(),
		listeners: make([]box, len(nw.APs)),
		spans:     make([]colSpan, len(nw.APs)*ny),
	}
	for i := range s.shards {
		s.shards[i].chans = make(map[float64]*chanState)
	}
	s.resetListeners()
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
	amp := math.Sqrt(units.FromDBm(nw.linkTemplate.TxPowerDBm)) *
		math.Pow(10, -nw.linkTemplate.ImplementationLossDB/20)
	// Switch field gains: selected path plus the leaked port, both
	// arriving coherently in the worst case — the switch every
	// evaluation reads.
	sel, leak := nodeSwitch.SelectedGain(), nodeSwitch.LeakageGain()
	lam := units.Wavelength(nw.Env.FreqHz)
	field := amp * (sel + leak) * gt * gr * (lam / (4 * math.Pi)) * margin
	return field * field * 1.1 // final safety factor on the power bound
}

// registerNode installs a node into the grid, the channel registry and
// the noise tracking. It does not discover edges.
func (s *sparseState) registerNode(nw *Network, n *Node) {
	n.sp.pBound = s.pBoundAt(n.Pose.Pos, n.AP)
	n.sp.noise = nw.linkCfg(n).NoisePowerW()
	if n.sp.noise < s.minNoise {
		s.minNoise = n.sp.noise
	}
	s.gridInsert(n)
	s.chanRegister(n)
}

// pBoundAt anchors the conservative received-power bound at an arbitrary
// AP. A node's own pBound is this at its serving AP, set where its pose
// or AP changes (registerNode, moveNode; a roam re-registers), so the
// cross-shard re-anchoring reproduces it bit for bit at that AP.
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

// colSpan is one grid row's part of a listener box: the lowest and the
// highest column of a cell a listener sat in (lo > hi: none did).
type colSpan struct{ lo, hi int32 }

// listenAt records that n, in its grid cell, caches a link towards AP j.
func (s *sparseState) listenAt(j int, n *Node) {
	s.listeners[j].grow(n.Pose.Pos)
	c := n.sp.cell
	sp := &s.spans[j*s.ny+c/s.nx]
	ix := int32(c % s.nx)
	sp.lo, sp.hi = min(sp.lo, ix), max(sp.hi, ix)
}

// listen grows the listener box and spans of every AP n caches a link
// towards.
func (s *sparseState) listen(n *Node) {
	s.listenAt(n.AP.idx, n)
	for a := range n.sp.cross {
		if n.sp.cross[a].live() {
			s.listenAt(a, n)
		}
	}
}

// resetListeners empties every listener box and span, for listen to
// rebuild.
func (s *sparseState) resetListeners() {
	for i := range s.listeners {
		s.listeners[i] = emptyBox()
	}
	for i := range s.spans {
		s.spans[i] = colSpan{lo: int32(s.nx), hi: -1}
	}
}

func (s *sparseState) gridInsert(n *Node) {
	c := s.cellIndex(n.Pose.Pos)
	n.sp.cell = c
	n.sp.cellSlot = len(s.cells[c])
	s.cells[c] = append(s.cells[c], gridSlot{n: n})
	s.listenAt(n.AP.idx, n)
}

func (s *sparseState) gridRemove(n *Node) {
	c, sl := n.sp.cell, n.sp.cellSlot
	lst := s.cells[c]
	last := len(lst) - 1
	if sl != last {
		lst[sl] = lst[last]
		lst[sl].n.sp.cellSlot = sl
	}
	lst[last] = gridSlot{}
	s.cells[c] = lst[:last]
}

// gap is the distance from c to the nearest point of cell i, the
// interval [i·w, (i+1)·w] (0 inside it).
func gap(i int, w, c float64) float64 {
	if lo := float64(i) * w; c < lo {
		return lo - c
	}
	if hi := float64(i+1) * w; c > hi {
		return c - hi
	}
	return 0
}

// discRow returns the run [lo, hi] of row iy's cells in [ix0, ix1] whose
// rectangle comes within √r2 of p (lo > hi when none does). The float
// gap to p.X falls up to p's column and rises past it, and the test is
// monotone in it, so the cells that pass are one run, and only the cells
// outside it are tested.
func (s *sparseState) discRow(iy, ix0, ix1 int, p channel.Vec2, r2 float64) (lo, hi int) {
	dy := gap(iy, s.cellH, p.Y)
	lo, hi = ix0, ix1
	for ; lo <= hi; lo++ {
		if dx := gap(lo, s.cellW, p.X); dx*dx+dy*dy <= r2 {
			break
		}
	}
	for ; hi > lo; hi-- {
		if dx := gap(hi, s.cellW, p.X); dx*dx+dy*dy <= r2 {
			break
		}
	}
	return lo, hi
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
	s.cells[n.sp.cell][n.sp.cellSlot] = gridSlot{n: n, pBound: n.sp.pBound, cs: cs}
	n.sp.chanHarm = h
	n.sp.chanSlot = len(cs.occ[h])
	cs.occ[h] = append(cs.occ[h], n)
	cs.occMask[h/64] |= 1 << (h % 64)
	cs.count++
	for k := range cs.minA {
		if n.avec[k] < cs.minA[k] {
			cs.minA[k] = n.avec[k]
		}
	}
}

// unscreen marks n's grid slot as no longer bounded by the channel n is
// registered on: a reboot handshake whose share confirm died moved the
// grant of a node that stays down (its registration follows at the
// reboot that succeeds, or a move). Until chanRegister rewrites the slot,
// discoverIn runs the pair kernel on n's grant without the class screen.
func (s *sparseState) unscreen(n *Node) {
	s.cells[n.sp.cell][n.sp.cellSlot].cs = nil
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
				if v.avec[k] < cs.minA[k] {
					cs.minA[k] = v.avec[k]
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
		if src.sp.cross == nil {
			src.sp.cross = make([]crossAP, s.nAPs)
		}
		src.sp.cross[da].edges++
		if src.sp.cross[da].edges == 1 {
			// First victim at that AP: the source's cached power there has
			// never been computed (or went stale while unreferenced), so
			// force an eval pass over it before the victim re-sums. The
			// source now listens to da.
			s.markEvalStale(src)
			s.listenAt(da, src)
		}
	}
	s.markDirty(dst)
}

// unhook removes the edge src.out[si] ↔ dst.in[di], fixing the slot
// pointers of whichever edges the two swap-removes displaced, and reverses
// addEdge's cross-AP count. Edges are always torn down before an
// endpoint's association changes (roamDetach runs under the old AP), so
// the AP indexes seen here match the ones addEdge counted.
func (s *sparseState) unhook(src *Node, si int, dst *Node, di int) {
	if da := dst.AP.idx; da != src.AP.idx {
		src.sp.cross[da].edges--
	}
	if last := len(dst.sp.in) - 1; di != last {
		moved := dst.sp.in[last]
		dst.sp.in[di] = moved
		moved.src.sp.out[moved.srcSlot].dstSlot = di
	}
	dst.sp.in = dst.sp.in[:len(dst.sp.in)-1]
	if last := len(src.sp.out) - 1; si != last {
		moved := src.sp.out[last]
		src.sp.out[si] = moved
		moved.dst.sp.in[moved.dstSlot].srcSlot = si
	}
	src.sp.out = src.sp.out[:len(src.sp.out)-1]
	s.markDirty(dst)
}

// clearEdges drops every edge touching n, marking the affected victims
// dirty, and n's watches with them: every caller is about to change
// what n's links are (its pose, AP or grant) or to forget n, and a down
// node's watched powers may have gone stale unrefreshed. Removing from
// the back keeps n's own lists swap-free.
func (s *sparseState) clearEdges(n *Node) {
	for len(n.sp.out) > 0 {
		si := len(n.sp.out) - 1
		s.unhook(n, si, n.sp.out[si].dst, n.sp.out[si].dstSlot)
	}
	for len(n.sp.in) > 0 {
		di := len(n.sp.in) - 1
		s.unhook(n.sp.in[di].src, n.sp.in[di].srcSlot, n, di)
	}
	clear(n.sp.cross) // no out-edges are left: this drops the watches
}

// watch caches p, node n's peak received power at AP a as a roam check
// just traced it, and keeps it exact from here as a live cross entry:
// n now listens to a.
func (s *sparseState) watch(n *Node, a int, p float64) {
	if n.sp.cross == nil {
		n.sp.cross = make([]crossAP, s.nAPs)
	}
	x := &n.sp.cross[a]
	x.watch, x.power = true, p
	s.listenAt(a, n)
}

// discoverIn hooks in every source audible to victim v, in the order
// audibleIn finds them.
func (s *sparseState) discoverIn(nw *Network, v *Node) {
	if nw.discWalk != nil {
		s.inScratch = nw.discWalk(v)
	} else {
		s.inScratch = s.audibleIn(s.inScratch[:0], nw, v)
	}
	for _, e := range s.inScratch {
		s.addEdge(e.src, v, e.w)
	}
}

// audibleIn appends to dst every source audible to victim v, with the
// pair's coupling factor: the grid cells of a disc around v's SERVING AP
// bound the candidate set (v's receiver lives there; anything outside
// the disc has a power bound below cut·noise even at w=1), then each
// candidate is admitted exactly through the shared pair kernel, cells in
// row-major order and slots in cell order. Cells are screened by
// rectangle-to-point distance; the nodes inside a listed cell are NOT
// distance-filtered, so the disc only has to be a superset, and r = +Inf
// (a cut of 0) walks every cell. Two screens read only the candidate's
// grid slot and drop what the kernel would drop: a power bound below the
// threshold, and one whose product with the class bound of the
// candidate's channel is (classBoundLinear dominates every pair's
// frequency factor, and the kernel's answer never exceeds it). A
// candidate served by another AP carries a bound anchored at ITS AP, so
// the screen re-anchors it at v's — that is the only extra work the
// multi-AP case adds to this path.
func (s *sparseState) audibleIn(dst []inEdge, nw *Network, v *Node) []inEdge {
	threshold := s.cut * v.sp.noise
	r := math.Sqrt(s.pC / threshold)
	if r < sparseDMin {
		r = sparseDMin
	}
	apV := v.AP
	vi := apV.idx
	p := apV.Pose.Pos
	c0, w0 := v.Assignment.CenterHz, v.Assignment.WidthHz
	ix0, ix1 := cellSpan(p.X, r, s.cellW, s.nx)
	iy0, iy1 := cellSpan(p.Y, r, s.cellH, s.ny)
	r2 := r * r
	for iy := iy0; iy <= iy1; iy++ {
		lo, hi := s.discRow(iy, ix0, ix1, p, r2)
		for _, cell := range s.cells[iy*s.nx+lo : iy*s.nx+hi+1] {
			for i := range cell {
				sl := &cell[i]
				j := sl.n
				if j == v {
					continue
				}
				pb, cs := sl.pBound, sl.cs
				var ai int
				if cs != nil {
					ai = cs.ap
				} else {
					ai = j.AP.idx // an unscreened slot: its node is loaded
				}
				if ai != vi {
					pb = s.pBoundAt(j.Pose.Pos, apV)
				}
				if pb < threshold || cs != nil && pb*nw.classBoundLinear(c0, w0, cs) < threshold {
					continue
				}
				if w := nw.pairCouplingLinear(v, j); pb*w >= threshold {
					dst = append(dst, inEdge{src: j, w: w})
				}
			}
		}
	}
	return dst
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
// ev is the evaluation applyAssignment just ran for it (seedEval).
func (s *sparseState) addNode(nw *Network, n *Node, ev core.Evaluation) {
	s.registerNode(nw, n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.seedEval(n, ev)
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
// and AP (promotion, renew re-sync, reboot rejoin): re-register the
// channel, refresh the noise floor (the bandwidth may have changed),
// rebuild the node's edges both ways, and seed the evaluation
// applyAssignment just ran (ev). The power bound and avec stay: they
// follow the pose and the AP, and a handshake moves only the grant (it
// writes Session.Harmonic, never SDMHarmonic).
func (s *sparseState) updateNode(nw *Network, n *Node, ev core.Evaluation) {
	s.chanUnregister(n)
	n.sp.noise = nw.linkCfg(n).NoisePowerW()
	if n.sp.noise < s.minNoise {
		s.minNoise = n.sp.noise
	}
	s.chanRegister(n)
	s.clearEdges(n)
	s.discoverIn(nw, n)
	s.discoverOut(nw, n)
	s.seedEval(n, ev)
}

// seedEval installs what the engine keeps of ev, the evaluation
// applyAssignment ran for n at its current pose, AP and width — the call
// the eval pass would make, on the same inputs, so the settle does not
// repeat it. A down node is marked stale as any changed node is. From
// here n is a settled node: region mapping tests it against every region
// swept since the engine's epoch (a region swept before the seed can only
// have it re-traced to the same bits), and an addEdge that marked it
// stale for a cross-AP power still has the eval pass run it.
func (s *sparseState) seedEval(n *Node, ev core.Evaluation) {
	if n.Down {
		s.markEvalStale(n)
		return
	}
	n.sp.power, n.sp.class = peakPower(ev), ev.PathClass
	s.markDirty(n)
}

// moveNode handles a pose change (aimAt has re-aimed avec): new power
// bound, new grid cell, possibly a new harmonic bucket, and a full edge
// rebuild for the moved node (everyone else's edges are pose-independent).
func (s *sparseState) moveNode(nw *Network, n *Node) {
	s.gridRemove(n)
	s.chanUnregister(n)
	n.sp.pBound = s.pBoundAt(n.Pose.Pos, n.AP)
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
		if !nw.member(n) {
			continue // left (or was replaced) while queued
		}
		if n.sp.evalStale {
			work = append(work, n)
		}
	}
	s.workScratch = work
	if s.evalFn == nil {
		s.evalFn = func(lane, i int) { s.lanes[lane].work.LinkEvals += s.evalNode(nw, s.workScratch[i]) }
	}
	s.growLanes(nw.Workers, len(work))
	par.For(nw.Workers, len(work), s.evalFn)
	s.foldLanes(nw)
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

// evalNode re-runs one stale node's link evaluation, refreshes its power
// at every foreign AP whose entry is live, records whether a power a
// victim reads — at its serving AP or at a foreign AP it has victims at —
// moved, and returns how many links it evaluated.
func (s *sparseState) evalNode(nw *Network, n *Node) (evals int) {
	n.sp.evalStale = false
	oldPower := n.sp.power
	if n.Down {
		n.sp.power = 0
	} else {
		ev := nw.evaluate(n, n.AP)
		n.sp.power, n.sp.class = peakPower(ev), ev.PathClass
		evals++
	}
	moved := n.sp.power != oldPower
	// Refresh the node's received power at every foreign AP it caches it
	// for (cross-shard edges and roam watches). Down sources are skipped:
	// their victims skip them in the re-sum, exactly like the serving
	// path, and the screen skips them (a reboot drops the watches).
	if !n.Down {
		for a := range n.sp.cross {
			x := &n.sp.cross[a]
			if !x.live() || a == n.AP.idx {
				continue
			}
			evals++
			if p := nw.crossPower(n, a); p != x.power {
				x.power = p
				moved = moved || x.edges > 0 // no victim reads a watch-only power
			}
		}
	}
	n.sp.powerMoved = moved
	return evals
}

// finishDirty re-sums and rebuilds the report of every queued node, then
// resets the dirty set. During Run it also queues every member it visited
// on the run's finished list — the only feed of the tick's rate/sample
// step (runState.envRefresh) — and, as the only writer of a report's path
// class, on the roam list if it can roam.
func (s *sparseState) finishDirty(nw *Network) {
	dirty := s.dirty
	if s.finishFn == nil {
		s.finishFn = func(_, i int) {
			n := s.dirty[i]
			if !nw.member(n) {
				return
			}
			n.sp.queued = false
			if !n.sp.sumDirty {
				return
			}
			n.sp.sumDirty = false
			s.finishNode(n)
		}
	}
	par.For(nw.Workers, len(dirty), s.finishFn)
	if rs := nw.run; rs != nil {
		for _, n := range dirty {
			if nw.member(n) {
				rs.queueFinished(n)
				rs.listRoamer(n)
			}
		}
	}
	s.dirty = dirty[:0]
}

// finishNode re-sums one victim's interference row from scratch and
// rebuilds its report.
func (s *sparseState) finishNode(n *Node) {
	if n.Down {
		n.sp.rep = linkReport{SNRdB: math.Inf(-1), SINRdB: math.Inf(-1), BER: 1, PathClass: "down"}
		return
	}
	noise, p := n.sp.noise, n.sp.power
	sinr := units.DB(p / (noise + n.interference()))
	n.sp.rep = linkReport{
		SNRdB:     units.DB(p / noise),
		SINRdB:    sinr,
		BER:       core.Evaluation{SNRWithOTAM: sinr}.BERWithOTAM(),
		PathClass: n.sp.class,
	}
}

// interference sums victim n's in-edges: each live source's received
// power at n's AP times the pair's coupling factor. Always a fresh sum —
// incremental ± maintenance would accumulate rounding drift past the
// equivalence tolerance.
func (n *Node) interference() float64 {
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
			// its own serving AP. The eval pass keeps it fresh for as long
			// as the edge exists (cross[vi].edges > 0).
			p = e.src.sp.cross[vi].power
		}
		interf += p * e.w
	}
	return interf
}

// --- indexed bestHostChannel ---

// bestHostChannel picks, among the channels live at AP ap, the one whose
// occupants that AP's TMA can best separate from a newcomer at harmonic h
// with suppression vector bvec (its avec) — maximizing the worst-case
// pairwise suppression, ties to fewer occupants, then the lower center.
// The exclude ID skips the newcomer itself, so a node re-running the
// handshake (reboot, post-restart rejoin) does not count its own entry as
// an occupant. ok is false when the AP hosts no channels yet. Per
// channel, the worst-case suppression is
//
//	min over occupants v of min(a_v, b_v)
//	  = min( min_v a_v , min_v b_v )
//	  = min( minA[h] , min over occupied slots k of bvec[k] )
//
// with a_v the occupant-side leak (the occupants' avec, folded into the
// channel's minA) and b_v the newcomer-side leak (bvec at the occupant's
// slot). The slots are sorted by bvec once per call, so the second term
// is the bvec of the first slot in that order whose occMask bit is set,
// never a walk of the per-slot occupant lists. A channel whose minA[h]
// already falls below the best so far can neither win nor tie, and is
// skipped on that one compare. Float min is exact and order-free, the
// skip drops only channels strictly below the best, and the selection is
// a strict total order, so the result is bit-identical to the
// all-members scan of the oracle (denseBestHostChannel). The excluded
// node's channel falls back to a direct occupant scan. Only the admitting
// AP's shard is walked — SDM sharing is an intra-array affair, so
// occupants of other APs never constrain the choice.
func (s *sparseState) bestHostChannel(nw *Network, ap *AccessPoint, h int, bvec []float64, exclude uint32) (float64, bool) {
	chanList := s.shards[ap.idx].chanList
	if len(chanList) == 0 {
		return 0, false
	}
	if cap(s.slotOrder) < len(bvec) {
		s.slotOrder = make([]int, len(bvec))
	}
	order := s.slotOrder[:len(bvec)]
	for k := range bvec {
		// Insertion sort by bvec: 17 slots.
		i := k
		for ; i > 0 && bvec[order[i-1]] > bvec[k]; i-- {
			order[i] = order[i-1]
		}
		order[i] = k
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
					m := math.Min(v.avec[h+s.maxM], bvec[v.sp.chanHarm])
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
			if found && supp < bestSupp {
				continue
			}
			for _, k := range order {
				if cs.occMask[k/64]>>(k%64)&1 != 0 {
					if b := bvec[k]; b < supp {
						supp = b
					}
					break
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
