package simnet

import (
	"math/cmplx"

	"mmx/internal/units"
)

// This file owns the cached pairwise coupling matrix: linear power
// factors (flat n×n; coupling[i*n+j] = pairCouplingLinear(i, j), so the
// interference sum is pure multiply-add with no per-pair dB conversion).
// The cache depends only on assignments, harmonics and poses — NOT on
// blocker motion — so EvaluateSINR reuses it across environment steps.
//
// Membership and assignment changes maintain the cache incrementally:
// a join appends one row and column (O(n) pair computations), a leave
// compacts one row and column out, and a promotion or renew re-sync
// recomputes the affected node's row and column in place. The full
// rebuild (ensureCoupling) stays as the dirty-flag fallback — MoveNode
// and any state the incremental paths cannot trust route through it —
// and the incremental results are golden-tested equal to a from-scratch
// rebuild.

// aclrAdjacentDB and aclrFarDB are the adjacent-channel leakage of FDM
// neighbours (power ratio below the carrier): a neighbour closer than the
// narrower channel's width, and anything farther (freqCoupling).
const aclrAdjacentDB, aclrFarDB = 40.0, 60.0

// aclrAdjacent and aclrFar are the two as linear power factors, converted
// once so the pair kernel does not convert the same two constants for
// every candidate pair.
var aclrAdjacent, aclrFar = units.FromDB(-aclrAdjacentDB), units.FromDB(-aclrFarDB)

// pairCouplingLinear returns the linear coupling factor — the share of
// other's power that lands in node's receiver: frequency separation for
// FDM, TMA harmonic leakage (read from other's gain table) for co-channel
// SDM pairs, and 1, a full collision, for overlapping channels with no
// SDM party. It is the single pair kernel shared by the full rebuild,
// every incremental update and the sparse core's edge discovery, so they
// are bit-identical by construction; couplingDB in legacy_bench_test.go
// is its dB-domain oracle.
func (nw *Network) pairCouplingLinear(node, other *Node) float64 {
	if _, lin, ok := nw.freqCoupling(node, other); ok {
		return lin
	}
	if node.apIndex() != other.apIndex() {
		// Cross-AP co-channel: the interferer is not part of the victim
		// AP's TMA schedule, so the array buys no separation — a full
		// collision, mitigated only by distance (the power term).
		return 1
	}
	if !node.Shared && !other.Shared {
		return 1 // full collision, 0 dB
	}
	maxM := nw.APs[0].SDM.MaxHarmonic()
	own := cmplx.Abs(other.tbl[other.SDMHarmonic+maxM])
	leak := cmplx.Abs(other.tbl[node.SDMHarmonic+maxM])
	return units.FromDB(-tmaSuppressionDB(own, leak))
}

// couplingValid reports whether the cached matrix is trustworthy for a
// membership of size n — the precondition every incremental update checks
// before touching the cache. A live sparse core maintains its own
// incremental state, so it always counts as valid.
func (nw *Network) couplingValid(n int) bool {
	if nw.sparse != nil {
		return true
	}
	return !nw.couplingDirty && len(nw.coupling) == n*n
}

// ensureCoupling rebuilds the cached coupling matrix if it was
// invalidated (or never built). The n² pair fill reads each interferer's
// TMA response off the gain table its node carries instead of re-summing
// the array response per pair, and stores each entry already linearized
// (FromDB(−dB)) so the per-call interference sum pays no dB conversion.
func (nw *Network) ensureCoupling() {
	if nw.sparse != nil {
		return
	}
	n := len(nw.Nodes)
	if nw.couplingValid(n) {
		return
	}
	if cap(nw.coupling) < n*n {
		nw.coupling = make([]float64, n*n)
	} else {
		nw.coupling = nw.coupling[:n*n]
	}
	nw.forEachNode(n, func(i int) {
		node := nw.Nodes[i]
		row := nw.coupling[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if i == j {
				row[j] = 0 // unused: the interference sum skips i==j
				continue
			}
			row[j] = nw.pairCouplingLinear(node, nw.Nodes[j])
		}
	})
	nw.couplingDirty = false
}

// couplingAddNode extends the cache for a node just appended to
// nw.Nodes: the existing rows are re-strided in place and only the new
// node's row and column are computed — O(n) pair kernels instead of the
// O(n²) full rebuild. With an untrusted cache it degrades to the dirty
// flag.
func (nw *Network) couplingAddNode() {
	n := len(nw.Nodes)
	if nw.sparse == nil && nw.couplingMode == CouplingAuto && n >= sparseCrossover {
		nw.enterSparse() // builds state for the full membership, newcomer included
		return
	}
	if nw.sparse != nil {
		nw.sparse.addNode(nw, nw.Nodes[n-1])
		return
	}
	old := n - 1
	if !nw.couplingValid(old) {
		nw.couplingDirty = true
		return
	}
	if cap(nw.coupling) < n*n {
		grown := make([]float64, n*n)
		for i := 0; i < old; i++ {
			copy(grown[i*n:i*n+old], nw.coupling[i*old:(i+1)*old])
		}
		nw.coupling = grown
	} else {
		nw.coupling = nw.coupling[:n*n]
		// Re-stride in place back to front so a row never overwrites one
		// not yet moved (new offsets are ≥ old offsets for every row).
		for i := old - 1; i >= 1; i-- {
			copy(nw.coupling[i*n:i*n+old], nw.coupling[i*old:(i+1)*old])
		}
	}
	newcomer := nw.Nodes[old]
	row := nw.coupling[old*n : n*n]
	for j := 0; j < old; j++ {
		row[j] = nw.pairCouplingLinear(newcomer, nw.Nodes[j])
		nw.coupling[j*n+old] = nw.pairCouplingLinear(nw.Nodes[j], newcomer)
	}
	row[old] = 0
}

// couplingRemoveNode compacts row and column k out of the cache after
// leaver (formerly at index k) was removed from nw.Nodes. The dense path
// is pure memory moves — no pair kernel runs; the sparse path unhooks
// the leaver's adjacency. With an untrusted cache it degrades to the
// dirty flag.
func (nw *Network) couplingRemoveNode(leaver *Node, k int) {
	if nw.sparse != nil {
		nw.sparse.removeNode(nw, leaver)
		return
	}
	old := len(nw.Nodes) + 1
	if !nw.couplingValid(old) || k < 0 || k >= old {
		nw.couplingDirty = true
		return
	}
	n := old - 1
	dst := 0
	for i := 0; i < old; i++ {
		if i == k {
			continue
		}
		for j := 0; j < old; j++ {
			if j == k {
				continue
			}
			// dst never overtakes the source index i*old+j, so the
			// forward compaction is safe in place.
			nw.coupling[dst] = nw.coupling[i*old+j]
			dst++
		}
	}
	nw.coupling = nw.coupling[:n*n]
}

// couplingUpdateNode recomputes one live node's row and column after its
// assignment or SDM role changed (promotion, renew re-sync, reboot
// rejoin) — O(n) pair kernels. The target's index comes from its
// maintained idx field, not the O(n) membership scan earlier revisions
// paid per update. With an untrusted cache (or a node not in the
// membership list) it degrades to the dirty flag.
func (nw *Network) couplingUpdateNode(target *Node) {
	if nw.sparse != nil {
		nw.sparse.updateNode(nw, target)
		return
	}
	nw.recomputePairs(target)
}

// couplingMoveNode refreshes the cache after target's pose (and with it
// its gain table and possibly its harmonic slot — MoveNode re-aimed it)
// changed. The dense matrix holds nothing pose-specific beyond the pair
// factors, so it recomputes the node's row and column as an assignment
// change does; the sparse core also re-files the node in its grid.
func (nw *Network) couplingMoveNode(target *Node) {
	if nw.sparse != nil {
		nw.sparse.moveNode(nw, target)
		return
	}
	nw.recomputePairs(target)
}

// recomputePairs refills target's row and column of the dense matrix in
// place.
func (nw *Network) recomputePairs(target *Node) {
	n := len(nw.Nodes)
	if !nw.couplingValid(n) {
		nw.couplingDirty = true
		return
	}
	i := target.idx
	if i < 0 || i >= n || nw.Nodes[i] != target {
		nw.couplingDirty = true
		return
	}
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		nw.coupling[i*n+j] = nw.pairCouplingLinear(target, nw.Nodes[j])
		nw.coupling[j*n+i] = nw.pairCouplingLinear(nw.Nodes[j], target)
	}
}

// roamDetach and roamAttach bracket a roam's AP switch for the coupling
// layer. The sparse core keys per-edge bookkeeping (cross-AP out-edge
// counters, channel-shard registration) on the node's serving AP, so the
// teardown must run while the old association is still in place and the
// re-registration after the new one (and its assignment) are: detach
// clears edges, grid slot and shard entry; attach re-derives geometry
// against the new AP, re-registers and rediscovers the adjacency. The
// dense matrix carries no AP-scoped incremental state, so detach is a
// no-op and attach is the ordinary move refresh.
func (nw *Network) roamDetach(n *Node) {
	if s := nw.sparse; s != nil {
		s.clearEdges(n)
		s.gridRemove(n)
		s.chanUnregister(n)
	}
}

func (nw *Network) roamAttach(n *Node) {
	if s := nw.sparse; s != nil {
		s.registerNode(nw, n)
		s.discoverIn(nw, n)
		s.discoverOut(nw, n)
		s.markEvalStale(n)
		return
	}
	nw.recomputePairs(n)
}

// couplingPowerChanged tells the coupling layer a node's transmit state
// flipped without its assignment changing (crash, reboot-in-progress).
// The dense matrix doesn't cache power — EvaluateSINR zeroes Down nodes
// each call — but the sparse core's victims must re-sum their
// interference rows, so it marks them dirty.
func (nw *Network) couplingPowerChanged(target *Node) {
	if nw.sparse != nil {
		nw.sparse.powerChanged(nw, target)
	}
}
