package modem

import (
	"errors"
	"math"
	"math/cmplx"

	"mmx/internal/dsp"
	"mmx/internal/par"
)

// DemodResult reports everything the receiver learned from one capture.
type DemodResult struct {
	// Bits are the decoded frame bits (preamble first), after any
	// inversion correction. The slice is owned by the Demodulator and is
	// valid only until its next Demodulate/Receive call; callers that
	// retain bits across calls must copy them.
	Bits []bool
	// Offset is the detected start of the frame in samples.
	Offset int
	// SyncScore is the normalized preamble-correlation peak (0..1) at
	// the chosen offset, over the stronger of the envelope and
	// frequency tracks. Low scores mean no frame was really there.
	SyncScore float64
	// Inverted reports that the amplitude mapping arrived flipped
	// (Fig. 4(b): LoS blocked, so Beam 0 outruns Beam 1) and was
	// corrected using the preamble.
	Inverted bool
	// ASKConfidence ∈ [0,1] is the normalized separation of the two
	// amplitude levels measured on the preamble.
	ASKConfidence float64
	// FSKConfidence ∈ [0,1] is the normalized tone separation measured
	// on the preamble.
	FSKConfidence float64
	// Mode is the decision rule that dominated: "ask", "fsk", or
	// "joint".
	Mode string
}

// Demodulator decodes mmX captures for a fixed Config.
//
// A Demodulator owns all of its working memory: the preamble templates
// are computed once at construction, and the per-capture series
// (envelope, instantaneous frequency, sliding-correlation prefix sums,
// per-symbol observables, decoded bits) live in grow-only scratch buffers
// reused across calls. Steady-state Demodulate therefore performs zero
// allocations — and is NOT safe for concurrent use; give each goroutine
// its own Demodulator.
type Demodulator struct {
	cfg Config
	// MinConfidence is the floor below which a modality is considered
	// unusable on its own.
	MinConfidence float64

	spb  int
	disc *dsp.ToneDiscriminator

	// Preamble templates, immutable after construction. The templates
	// are piecewise constant over symbols, so the sliding normalized
	// cross-correlation needs only the per-symbol values plus the
	// template's sample-domain sum and energy.
	tmplLen int
	envTSym []float64 // zero-mean ±1 envelope template, one value per symbol
	envTSum float64   // Σ_i t_i over samples
	envTEng float64   // Σ_i t_i² over samples
	useFreq bool
	frqTSym []float64 // expected instantaneous-frequency template per symbol
	frqTSum float64
	frqTEng float64
	freqMid float64

	// Per-capture scratch (reused, grow-only); x and offset are the
	// capture and frame start a chunked pass reads, held only for the
	// duration of the call.
	x        []complex128
	offset   int
	env      []float64
	rawFreq  []float64
	instFreq []float64
	envP1    []float64 // prefix sums of env
	envP2    []float64 // prefix sums of env²
	frqP1    []float64
	frqP2    []float64
	levels   []float64
	p0s      []float64
	p1s      []float64
	bits     []bool
}

// NewDemodulator returns a receiver for the given numerology.
func NewDemodulator(cfg Config) *Demodulator {
	d := &Demodulator{cfg: cfg, MinConfidence: 0.1}
	d.spb = cfg.SamplesPerSymbol()
	d.disc = dsp.NewToneDiscriminator(cfg.F0, cfg.F1, cfg.SampleRate)
	d.tmplLen = len(Preamble) * d.spb

	// Envelope track: ±1 per preamble bit, zero-meaned exactly as the
	// sample-domain template would be (the per-sample mean equals the
	// per-symbol mean because every symbol spans spb samples).
	d.envTSym = make([]float64, len(Preamble))
	mean := 0.0
	for _, b := range Preamble {
		if b {
			mean++
		} else {
			mean--
		}
	}
	mean /= float64(len(Preamble))
	for s, b := range Preamble {
		v := -1.0
		if b {
			v = 1.0
		}
		d.envTSym[s] = v - mean
	}
	d.envTSum, d.envTEng = templateMoments(d.envTSym, d.spb)

	d.useFreq = cfg.F0 != cfg.F1
	if d.useFreq {
		d.freqMid = (cfg.F0 + cfg.F1) / 2
		d.frqTSym = make([]float64, len(Preamble))
		for s, b := range Preamble {
			f := cfg.F0
			if b {
				f = cfg.F1
			}
			d.frqTSym[s] = f - d.freqMid
		}
		d.frqTSum, d.frqTEng = templateMoments(d.frqTSym, d.spb)
	}
	return d
}

// templateMoments returns the sample-domain sum and energy of a
// piecewise-constant template with the given per-symbol values.
func templateMoments(sym []float64, spb int) (sum, energy float64) {
	for _, v := range sym {
		sum += v * float64(spb)
		energy += v * v * float64(spb)
	}
	return sum, energy
}

// ErrNoSync is returned when the capture is shorter than one frame.
var ErrNoSync = errors.New("modem: capture too short to contain the frame")

// prepare computes the per-capture series the correlator and decoder
// read: the envelope, the smoothed instantaneous frequency, and the
// prefix sums that make every sync score O(preamble bits) instead of
// O(preamble samples). The per-sample series run in par.Chunks, in two
// passes because the smoothing reads its neighbours' raw frequencies;
// the prefix sums run serially.
func (d *Demodulator) prepare(x []complex128) {
	n := len(x)
	d.env = growFloats(d.env, n)
	if d.useFreq {
		d.rawFreq = growFloats(d.rawFreq, n)
		d.instFreq = growFloats(d.instFreq, n)
	}
	d.x = x
	par.Chunks(n, (*samplePass)(d))
	if d.useFreq {
		par.Chunks(n, (*smoothPass)(d))
	}
	d.x = nil
	d.envP1, d.envP2 = prefixSumsInto(d.envP1, d.envP2, d.env)
	if d.useFreq {
		d.frqP1, d.frqP2 = prefixSumsInto(d.frqP1, d.frqP2, d.instFreq)
	}
}

// samplePass is prepare's first pass over [lo, hi): the envelope and,
// with FSK, the raw instantaneous frequency from the one-lag product
// x[i+1]·conj(x[i]).
type samplePass Demodulator

func (p *samplePass) Range(lo, hi int) {
	d := (*Demodulator)(p)
	x := d.x
	dsp.EnvelopeInto(d.env[lo:hi], x[lo:hi])
	if !d.useFreq {
		return
	}
	for i := lo; i < min(hi, len(x)-1); i++ {
		d.rawFreq[i] = cmplx.Phase(dsp.Mul(x[i+1], cmplx.Conj(x[i])))*d.cfg.SampleRate/(2*math.Pi) - d.freqMid
	}
	if hi == len(x) {
		d.rawFreq[hi-1] = 0
	}
}

// smoothPass is prepare's second pass: the single-lag frequency estimate
// is noisier than the FSK step itself at typical SNRs, so it is averaged
// over half a symbol and the correlation sees the tone pattern, not the
// phase noise.
type smoothPass Demodulator

func (p *smoothPass) Range(lo, hi int) {
	d := (*Demodulator)(p)
	dsp.MovingAverageSpan(d.instFreq, d.rawFreq, d.spb/2, lo, hi)
}

// prefixSumsInto fills p1/p2 (len(xs)+1 each, append-style reuse) with
// the running sums of xs and xs².
func prefixSumsInto(p1, p2, xs []float64) ([]float64, []float64) {
	n := len(xs) + 1
	if cap(p1) < n {
		p1 = make([]float64, n)
	}
	if cap(p2) < n {
		p2 = make([]float64, n)
	}
	p1, p2 = p1[:n], p2[:n]
	p1[0], p2[0] = 0, 0
	for i, v := range xs {
		p1[i+1] = p1[i] + v
		p2[i+1] = p2[i] + float64(v*v)
	}
	return p1, p2
}

// trackScore is the normalized cross-correlation of the capture window
// starting at k against a piecewise-constant template, evaluated from
// prefix sums: the window statistics are range sums, and the dot product
// collapses to one term per preamble symbol.
func (d *Demodulator) trackScore(p1, p2, tSym []float64, k int, tSum, tEng float64) float64 {
	l := float64(d.tmplLen)
	sumW := p1[k+d.tmplLen] - p1[k]
	mean := sumW / l
	dot := 0.0
	for s, v := range tSym {
		a := k + s*d.spb
		dot += v * (p1[a+d.spb] - p1[a])
	}
	dot -= mean * tSum
	ew := (p2[k+d.tmplLen] - p2[k]) - l*mean*mean
	if ew <= 0 || tEng == 0 {
		return 0
	}
	return dot / math.Sqrt(ew*tEng)
}

// scoreAt returns the stronger track's normalized correlation at offset k
// (0 when the window would run past the capture). prepare must have run
// for the capture.
func (d *Demodulator) scoreAt(k int) float64 {
	if k < 0 || k+d.tmplLen > len(d.env) {
		return 0
	}
	score := math.Abs(d.trackScore(d.envP1, d.envP2, d.envTSym, k, d.envTSum, d.envTEng))
	if d.useFreq {
		if f := math.Abs(d.trackScore(d.frqP1, d.frqP2, d.frqTSym, k, d.frqTSum, d.frqTEng)); f > score {
			score = f
		}
	}
	return score
}

// Demodulate locates a frame of nBits symbols in the capture (searching
// the whole capture for the strongest preamble correlation) and decodes
// it with the joint ASK-FSK rule. The capture may begin with dead air.
func (d *Demodulator) Demodulate(x []complex128, nBits int) (DemodResult, error) {
	spb := d.spb
	frameSamples := nBits * spb
	if len(x) < frameSamples || nBits < len(Preamble) {
		return DemodResult{}, ErrNoSync
	}
	d.prepare(x)
	offset, score := 0, d.scoreAt(0)
	for k := 1; k <= len(x)-frameSamples; k++ {
		if s := d.scoreAt(k); s > score {
			score = s
			offset = k
		}
	}
	return d.decodeAt(x, nBits, offset, score), nil
}

// FirstSync scans forward for the first preamble whose two-track
// correlation reaches threshold, refining to the local peak. ok is false
// when no preamble is found.
func (d *Demodulator) FirstSync(x []complex128, threshold float64) (offset int, score float64, ok bool) {
	d.prepare(x)
	limit := len(x) - d.tmplLen
	spb := d.spb
	for k := 0; k <= limit; k++ {
		s := d.scoreAt(k)
		if s < threshold {
			continue
		}
		// Refine: take the local maximum within the next two symbols.
		best, bestK := s, k
		for j := k + 1; j <= k+2*spb && j <= limit; j++ {
			if sj := d.scoreAt(j); sj > best {
				best = sj
				bestK = j
			}
		}
		return bestK, best, true
	}
	return 0, 0, false
}

// decodeAt runs the joint ASK-FSK decision on a frame of nBits symbols
// at a known offset, which must leave the whole frame inside x. prepare
// must have run for the capture.
func (d *Demodulator) decodeAt(x []complex128, nBits, offset int, syncScore float64) DemodResult {
	spb := d.spb

	// Per-symbol observables.
	d.levels = growFloats(d.levels, nBits) // mean envelope
	d.p0s = growFloats(d.p0s, nBits)       // tone-0 power
	d.p1s = growFloats(d.p1s, nBits)       // tone-1 power
	levels, p0s, p1s := d.levels, d.p0s, d.p1s
	fskUsable := d.useFreq
	d.x, d.offset = x, offset
	par.Chunks(nBits*spb, (*symbolPass)(d))
	d.x = nil

	// Train on the preamble: class means of the amplitude levels.
	var hi, lo, nHi, nLo float64
	for s, b := range Preamble {
		if b {
			hi += levels[s]
			nHi++
		} else {
			lo += levels[s]
			nLo++
		}
	}
	hi /= nHi
	lo /= nLo
	threshold := (hi + lo) / 2
	inverted := hi < lo
	askConf := 0.0
	if hi+lo > 0 {
		askConf = math.Abs(hi-lo) / (hi + lo)
	}

	// FSK confidence: mean tone separation over the preamble, gated by
	// whether the preamble actually decodes via FSK.
	fskConf := 0.0
	if fskUsable {
		sep, correct := 0.0, 0
		for s, b := range Preamble {
			if p0s[s]+p1s[s] > 0 {
				sep += math.Abs(p1s[s]-p0s[s]) / (p1s[s] + p0s[s])
			}
			if (p1s[s] > p0s[s]) == b {
				correct++
			}
		}
		sep /= float64(len(Preamble))
		acc := float64(correct) / float64(len(Preamble))
		if acc > 0.8 {
			fskConf = sep * (2*acc - 1)
		}
	}

	// Joint per-symbol decision: soft ASK and FSK scores weighted by the
	// squared preamble confidences (§6.3: either modality alone fails in
	// some channels; together they always decode).
	wa := askConf * askConf
	wf := fskConf * fskConf
	if askConf < d.MinConfidence {
		wa = 0
	}
	if fskConf < d.MinConfidence {
		wf = 0
	}
	if wa == 0 && wf == 0 {
		// Nothing is reliable; fall back to raw ASK so the caller sees
		// a (probably failing) best effort rather than nothing.
		wa = 1
	}
	halfGap := math.Abs(hi-lo) / 2
	d.bits = growBits(d.bits, nBits)
	bits := d.bits
	for s := 0; s < nBits; s++ {
		askSoft := 0.0
		if halfGap > 0 {
			askSoft = (levels[s] - threshold) / halfGap
			if inverted {
				askSoft = -askSoft
			}
			askSoft = clamp(askSoft, -1, 1)
		}
		fskSoft := 0.0
		if p0s[s]+p1s[s] > 0 {
			fskSoft = (p1s[s] - p0s[s]) / (p1s[s] + p0s[s])
		}
		bits[s] = wa*askSoft+wf*fskSoft > 0
	}

	mode := "joint"
	switch {
	case wf == 0:
		mode = "ask"
	case wa == 0:
		mode = "fsk"
	}
	return DemodResult{
		Bits:          bits,
		Offset:        offset,
		SyncScore:     syncScore,
		Inverted:      inverted,
		ASKConfidence: askConf,
		FSKConfidence: fskConf,
		Mode:          mode,
	}
}

// symbolPass measures decodeAt's per-symbol observables, the mean
// envelope and the two tone powers, of the symbols that start in
// [lo, hi): its index is the sample within the frame, so a chunk's work
// is its share of the frame's samples.
type symbolPass Demodulator

func (p *symbolPass) Range(lo, hi int) {
	d := (*Demodulator)(p)
	spb := d.spb
	for s := (lo + spb - 1) / spb; s*spb < hi; s++ {
		start := d.offset + s*spb
		sum := 0.0
		for _, e := range d.env[start : start+spb] {
			sum += e
		}
		d.levels[s] = sum / float64(spb)
		if d.useFreq {
			_, d.p0s[s], d.p1s[s] = d.disc.Decide(d.x[start : start+spb])
		} else {
			d.p0s[s], d.p1s[s] = 0, 0
		}
	}
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growBits(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// Receive demodulates a capture expected to hold a frame with payloadLen
// payload bytes and parses it, returning the payload.
func (d *Demodulator) Receive(x []complex128, payloadLen int) ([]byte, DemodResult, error) {
	res, err := d.Demodulate(x, FrameBits(payloadLen))
	if err != nil {
		return nil, res, err
	}
	payload, err := ParseFrame(res.Bits)
	return payload, res, err
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
