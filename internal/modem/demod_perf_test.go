package modem

// Equivalence and allocation guarantees for the prefix-sum synchronizer
// and the scratch-reusing demodulator:
//
//   - the O(preamble-bits) prefix-sum correlator must pick the same sync
//     offsets as the original O(preamble-samples) sliding-window ncc, with
//     scores equal to floating-point reassociation tolerance;
//   - a reused demodulator must produce results deep-equal to a fresh one
//     on every capture (the scratch buffers leak no state across calls);
//   - steady-state Demodulate must not allocate.

import (
	"bytes"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"mmx/internal/dsp"
	"mmx/internal/stats"
)

// naiveSync replicates the original sliding-window synchronizer: full
// per-sample templates and a windowed ncc recomputed from scratch at every
// offset. It is the reference the prefix-sum implementation is checked
// against.
type naiveSync struct {
	tmplLen  int
	envT     []float64
	env      []float64
	useFreq  bool
	freqT    []float64
	instFreq []float64
}

func newNaiveSync(cfg Config, x []complex128) *naiveSync {
	spb := cfg.SamplesPerSymbol()
	sc := &naiveSync{tmplLen: len(Preamble) * spb, env: dsp.EnvelopeInto(nil, x)}
	sc.envT = make([]float64, sc.tmplLen)
	for s, b := range Preamble {
		v := -1.0
		if b {
			v = 1.0
		}
		for k := 0; k < spb; k++ {
			sc.envT[s*spb+k] = v
		}
	}
	zeroMean(sc.envT)
	sc.useFreq = cfg.F0 != cfg.F1
	if sc.useFreq {
		mid := (cfg.F0 + cfg.F1) / 2
		sc.freqT = make([]float64, sc.tmplLen)
		for s, b := range Preamble {
			f := cfg.F0
			if b {
				f = cfg.F1
			}
			for k := 0; k < spb; k++ {
				sc.freqT[s*spb+k] = f - mid
			}
		}
		sc.instFreq = make([]float64, len(x))
		for i := 0; i+1 < len(x); i++ {
			sc.instFreq[i] = cmplx.Phase(x[i+1]*cmplx.Conj(x[i]))*cfg.SampleRate/(2*math.Pi) - mid
		}
		sc.instFreq = dsp.MovingAverageInto(nil, sc.instFreq, spb/2)
	}
	return sc
}

func (sc *naiveSync) scoreAt(k int) float64 {
	if k < 0 || k+sc.tmplLen > len(sc.env) {
		return 0
	}
	score := math.Abs(ncc(sc.env[k:k+sc.tmplLen], sc.envT))
	if sc.useFreq {
		if f := math.Abs(ncc(sc.instFreq[k:k+sc.tmplLen], sc.freqT)); f > score {
			score = f
		}
	}
	return score
}

// zeroMean subtracts xs's mean from every element, in place.
func zeroMean(xs []float64) {
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for i := range xs {
		xs[i] -= mean
	}
}

// ncc is the normalized cross-correlation of a window with a zero-mean
// template — the reference implementation the prefix-sum correlator is
// validated against.
func ncc(window, tmpl []float64) float64 {
	var mean float64
	for _, v := range window {
		mean += v
	}
	mean /= float64(len(window))
	var dot, ew, et float64
	for i, tv := range tmpl {
		wv := window[i] - mean
		dot += wv * tv
		ew += wv * wv
		et += tv * tv
	}
	if ew == 0 || et == 0 {
		return 0
	}
	return dot / math.Sqrt(ew*et)
}

// syncCase synthesizes a padded noisy capture for one channel scenario.
type syncCase struct {
	name       string
	cfg        Config
	g0, g1     complex128
	noisePower float64
	offset     int
	seed       uint64
}

func syncCases() []syncCase {
	ask := DefaultConfig()
	ask.F0, ask.F1 = 0, 0
	return []syncCase{
		{"joint", DefaultConfig(), complex(0.3, 0), complex(1, 0), 0.01, 37, 1},
		{"ask-only", ask, complex(0.1, 0), complex(1, 0), 0.01, 11, 2},
		{"inverted", DefaultConfig(), complex(1, 0), complex(0.15, 0), 0.01, 0, 3},
		{"fsk-only", DefaultConfig(), complex(0.9, 0.1), complex(0.88, -0.1), 0.005, 63, 4},
		{"noisy", DefaultConfig(), complex(0.3, 0), complex(1, 0), 0.08, 24, 5},
	}
}

func (c syncCase) capture(t *testing.T, payload []byte) []complex128 {
	t.Helper()
	bits, err := BuildFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	x := Synthesize(c.cfg, bits, c.g0, c.g1)
	x = PadRandomOffset(x, c.offset)
	x = append(x, make([]complex128, 40)...)
	dsp.AddNoise(x, c.noisePower, stats.NewRNG(c.seed))
	return x
}

// TestSyncPrefixSumMatchesNaive pins the prefix-sum correlator to the
// sliding-window reference: identical chosen offsets on every capture and
// per-offset scores within reassociation tolerance.
func TestSyncPrefixSumMatchesNaive(t *testing.T) {
	payload := []byte("prefix-sum sync equivalence")
	for _, c := range syncCases() {
		t.Run(c.name, func(t *testing.T) {
			x := c.capture(t, payload)
			nBits := FrameBits(len(payload))
			frameSamples := nBits * c.cfg.SamplesPerSymbol()

			d := NewDemodulator(c.cfg)
			d.prepare(x)
			ref := newNaiveSync(c.cfg, x)

			refBest, refOff := ref.scoreAt(0), 0
			for k := 0; k <= len(x)-frameSamples; k++ {
				fast := d.scoreAt(k)
				slow := ref.scoreAt(k)
				if math.Abs(fast-slow) > 1e-9 {
					t.Fatalf("score mismatch at k=%d: prefix-sum %.15f vs naive %.15f", k, fast, slow)
				}
				if slow > refBest {
					refBest, refOff = slow, k
				}
			}

			res, err := d.Demodulate(x, nBits)
			if err != nil {
				t.Fatal(err)
			}
			if res.Offset != refOff {
				t.Errorf("sync offset = %d, naive reference picks %d", res.Offset, refOff)
			}
			// Both implementations may land a few samples off the true
			// offset in near-flat-envelope channels; a symbol of slack is
			// the quality bound, exactness above is the equivalence bound.
			if spb := c.cfg.SamplesPerSymbol(); abs(res.Offset-c.offset) > spb {
				t.Errorf("sync offset = %d, true offset %d", res.Offset, c.offset)
			}
			if math.Abs(res.SyncScore-refBest) > 1e-9 {
				t.Errorf("sync score = %.15f, naive %.15f", res.SyncScore, refBest)
			}
		})
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestDemodulatorReuseMatchesFresh verifies the scratch buffers carry no
// state between captures: a demodulator that has already decoded other
// frames must return results deep-equal to a brand-new one.
func TestDemodulatorReuseMatchesFresh(t *testing.T) {
	payloads := [][]byte{
		[]byte("first capture"),
		[]byte("a different, rather longer second capture payload"),
		[]byte("x"),
	}
	for _, c := range syncCases() {
		t.Run(c.name, func(t *testing.T) {
			reused := NewDemodulator(c.cfg)
			for i, payload := range payloads {
				x := c.capture(t, payload)
				nBits := FrameBits(len(payload))
				fresh := NewDemodulator(c.cfg)
				want, errWant := fresh.Demodulate(x, nBits)
				got, errGot := reused.Demodulate(x, nBits)
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("capture %d: error mismatch: fresh %v, reused %v", i, errWant, errGot)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("capture %d: reused demodulator diverged:\nfresh:  %+v\nreused: %+v", i, want, got)
				}
			}
		})
	}
}

// TestStreamReceiverBitsAreStable guards the Bits-ownership contract:
// frames stored by the stream scanner must keep their bits even though the
// demodulator's scratch is rewritten by later frames in the same scan.
func TestStreamReceiverBitsAreStable(t *testing.T) {
	cfg := DefaultConfig()
	payloads := [][]byte{[]byte("frame one"), []byte("frame two"), []byte("frame 3!!")}
	var x []complex128
	for _, p := range payloads {
		bits, err := BuildFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		w := Synthesize(cfg, bits, complex(0.3, 0), complex(1, 0))
		x = append(x, make([]complex128, 50)...)
		x = append(x, w...)
	}
	x = append(x, make([]complex128, 50)...)
	dsp.AddNoise(x, 0.005, stats.NewRNG(9))

	frames := NewStreamReceiver(cfg).ReceiveAll(x, len(payloads[0]))
	if len(frames) != len(payloads) {
		t.Fatalf("recovered %d frames, want %d", len(frames), len(payloads))
	}
	for i, f := range frames {
		if !bytes.Equal(f.Payload, payloads[i]) {
			t.Errorf("frame %d payload = %q, want %q", i, f.Payload, payloads[i])
		}
		reparsed, err := ParseFrame(f.Result.Bits)
		if err != nil {
			t.Errorf("frame %d: stored bits no longer parse: %v", i, err)
			continue
		}
		if !bytes.Equal(reparsed, payloads[i]) {
			t.Errorf("frame %d stored bits decode to %q, want %q", i, reparsed, payloads[i])
		}
	}
}

// TestDemodulateSteadyStateAllocs pins the headline guarantee: once its
// scratch is warm, Demodulate performs zero allocations per capture.
func TestDemodulateSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	payload := []byte("steady-state allocation probe")
	bits, err := BuildFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	x := Synthesize(cfg, bits, complex(0.3, 0), complex(1, 0))
	x = PadRandomOffset(x, 21)
	x = append(x, make([]complex128, 40)...)
	dsp.AddNoise(x, 0.01, stats.NewRNG(6))
	nBits := len(bits)

	d := NewDemodulator(cfg)
	if _, err := d.Demodulate(x, nBits); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Demodulate(x, nBits); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Demodulate allocates %.1f times per call, want 0", allocs)
	}
}
