package simnet

import "mmx/internal/units"

// This file owns the pair kernel: the linear power factor by which one
// node's carrier lands in another's receiver. The interference engine
// (coupling_sparse.go) stores it on every edge it admits, so an
// interference sum is pure multiply-add with no per-pair dB conversion.

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
// FDM, TMA harmonic leakage (other's suppression vector, avec, read at
// node's slot) for co-channel SDM pairs, and 1, a full collision, for
// overlapping channels with no SDM party. It is the single pair kernel
// of edge discovery and of the dense oracle; couplingDB in
// legacy_bench_test.go is its dB-domain oracle.
func (nw *Network) pairCouplingLinear(node, other *Node) float64 {
	if _, lin, ok := nw.freqCoupling(node, other); ok {
		return lin
	}
	if node.AP.idx != other.AP.idx {
		// Cross-AP co-channel: the interferer is not part of the victim
		// AP's TMA schedule, so the array buys no separation — a full
		// collision, mitigated only by distance (the power term).
		return 1
	}
	if !node.Shared && !other.Shared {
		return 1 // full collision, 0 dB
	}
	return units.FromDB(-other.avec[node.SDMHarmonic+nw.APs[0].SDM.MaxHarmonic()])
}
