package experiments

// Deterministic Monte Carlo fan-out. Every figure and ablation in this
// package decomposes into independent trials (grid cells, random poses,
// distance samples, network instantiations). RunTrials runs them across
// the worker pool (par.For) while keeping the output bit-identical to a
// serial run:
//
//   - trial i's randomness comes only from TrialRNG(seed, i), never from a
//     stream shared across trials, so scheduling cannot reorder draws;
//   - results are written to out[i] by index, so scheduling cannot reorder
//     the output;
//   - trial bodies only read shared state (channel.Environment is
//     read-only during evaluation), so scheduling cannot change it.
//
// See DESIGN.md §1 for the RNG-derivation scheme and the reproducibility
// contract.

import (
	"mmx/internal/par"
	"mmx/internal/stats"
)

// trialSeedStride spaces per-trial seeds across the 64-bit space (the
// golden-ratio increment of splitmix64). stats.NewRNG splitmixes the seed
// again, so nearby experiment seeds and trial indexes still yield
// uncorrelated streams.
const trialSeedStride = 0x9E3779B97F4A7C15

// TrialRNG returns the RNG for trial i of an experiment: a pure function
// of (seed, trial), shared with no other trial.
func TrialRNG(seed uint64, trial int) *stats.RNG {
	return stats.NewRNG(seed + trialSeedStride*uint64(trial+1))
}

// RunTrials evaluates fn for trials 0..n-1, each with its own TrialRNG,
// and returns the results in trial order. The trials run on the worker
// pool (par.For, GOMAXPROCS wide); the returned slice is byte-identical
// for any width. fn must not mutate state shared between trials.
func RunTrials[T any](seed uint64, n int, fn func(trial int, rng *stats.RNG) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	par.For(0, n, func(_, i int) {
		out[i] = fn(i, TrialRNG(seed, i))
	})
	return out
}
