package apdsp

// One-pass wideband channelization. A channel at offset f = B·fs/M (bin B
// of an M-bin grid) decimated by D is, by definition, the capture mixed
// down by f, low-passed by an anti-alias prototype h, and kept every D-th
// sample. Done per node that is O(nodes × samples × taps) — the wrong
// shape for a band shared by hundreds of nodes. The FilterBank is the
// classic uniform polyphase restructuring of exactly that arithmetic:
// decompose h into M polyphase branches, and for every output instant
// evaluate all M channel frequencies at once with a length-M FFT.
//
// Derivation:
//
//	y[j] = Σ_k h[k]·x[jD−k]·e^{−j2πf(jD−k)/fs}
//	     = e^{−j2πBDj/M} · Σ_r e^{+j2πBr/M} · Σ_p h[r+pM]·x[jD−r−pM]
//
// The inner sums over p are the M polyphase branch outputs u_r (total work:
// one multiply per prototype tap, shared by every channel); the sum over r
// is an M-point DFT evaluated at −B (one FFT, shared by every channel);
// the leading phasor is a per-channel twiddle with period M/gcd(M, BD mod M)
// (a precomputed table). Per output sample the bank costs
// O(taps + M·log M) for all channels together instead of
// O(channels × D × taps). The first line, computed literally, is the oracle
// in channelizer_test.go; the two agree to floating-point rounding, which
// the golden tests pin below 1e-9.
//
// The TMA's spatial harmonics compose into the same grid: a node parked on
// switching harmonic m arrives translated by m·f_p, so its effective
// offset is (channel − center) + m·f_p and the bank only needs that sum to
// land on a bin. No per-node full-band shift pass exists.

import (
	"errors"
	"math"
	"math/cmplx"

	"mmx/internal/dsp"
	"mmx/internal/modem"
	"mmx/internal/par"
)

// BankChannel names one receive slot of the filterbank: an FDM channel
// center plus the TMA switching harmonic the node was hashed onto
// (0 for a plain FDM node).
type BankChannel struct {
	// ChannelHz is the RF center frequency of the FDM channel.
	ChannelHz float64
	// Harmonic is the TMA harmonic index composed into the channel map;
	// the node's signal arrives translated by Harmonic × SwitchRateHz.
	Harmonic int
}

// FilterBank extracts every configured channel's baseband from a wideband
// capture in a single pass. Channels must sit on the uniform bin grid
// WidebandRate/Bins (after composing their TMA harmonic shift).
//
// A FilterBank is NOT safe for concurrent use: the per-block branch/FFT
// scratch is owned by the bank. Give each worker its own bank, or let
// ReceiveAll fan the work out: it splits the extraction over output
// instants and the demodulation over channels, each lane on scratch of
// its own.
type FilterBank struct {
	// WidebandRate is the capture's complex sample rate (Hz).
	WidebandRate float64
	// CenterHz is the RF frequency at the capture's baseband zero.
	CenterHz float64
	// Bins is M, the uniform channel grid: channels sit at integer
	// multiples of WidebandRate/Bins relative to CenterHz. Power-of-two
	// values run the per-block FFT radix-2, other values mixed-radix
	// (plan-cached); a Bins with a large prime factor p costs O(M·p) per
	// block instead of O(M log M).
	Bins int
	// SwitchRateHz is the TMA schedule rate f_p, required when any
	// configured channel has a nonzero Harmonic.
	SwitchRateHz float64
	// TransitionFraction widens the anti-alias prototype's cutoff beyond
	// half the channel width (default 0.25 when zero); Taps is its length
	// (default 129 when zero).
	TransitionFraction float64
	Taps               int

	// Configured state.
	decim int
	proto []float64
	chans []bankChan
	plan  *dsp.FFTPlan
	// lanes[k] is the per-block scratch of extraction lane k, grown
	// lazily to the widest fan-out seen; ExtractAllInto runs on lanes[0].
	lanes []bankLane

	// ReceiveAll state: per-channel stream receivers (each touched by
	// exactly one worker per call) and extraction output scratch.
	recv    []*modem.StreamReceiver
	recvCfg modem.Config
	outs    [][]complex128
}

// Errors from filterbank configuration.
var (
	ErrOffGrid       = errors.New("apdsp: channel + harmonic offset not on the filterbank bin grid")
	ErrNoSwitchRate  = errors.New("apdsp: harmonic channel requires SwitchRateHz")
	ErrNotConfigured = errors.New("apdsp: filterbank has no configured channels")
)

// bankLane is one extraction lane's per-block scratch: the branch
// accumulator and its transform (len Bins each).
type bankLane struct{ u, bu []complex128 }

// bankChan is one configured channel's precomputed extraction state.
type bankChan struct {
	// bin is the FFT output index holding the channel's branch sum:
	// (−B) mod M for signed grid index B.
	bin int
	// tw is the per-output-sample phasor e^{−j2πBDj/M}, tabulated over
	// its period M/gcd(M, BD mod M).
	tw []complex128
}

// NewFilterBank returns an unconfigured bank over a capture of the given
// rate centered at centerHz with Bins uniform grid slots. Call Configure
// before extracting.
func NewFilterBank(widebandRate, centerHz float64, bins int) *FilterBank {
	return &FilterBank{WidebandRate: widebandRate, CenterHz: centerHz, Bins: bins}
}

// Configure (re)builds the bank for a channel plan: every channel widthHz
// wide, delivered at outRate. It may be called again as the plan churns;
// all derived state is rebuilt. The anti-alias prototype is designed once
// for the whole bank.
func (b *FilterBank) Configure(widthHz, outRate float64, channels []BankChannel) error {
	if b.Bins < 1 {
		return ErrOffGrid
	}
	if outRate <= 0 || outRate > b.WidebandRate {
		return ErrBadRate
	}
	factor := b.WidebandRate / outRate
	if math.Abs(factor-math.Round(factor)) > 1e-9 {
		return ErrBadRate
	}
	binHz := b.WidebandRate / float64(b.Bins)
	chans := make([]bankChan, 0, len(channels))
	for _, ch := range channels {
		offset := ch.ChannelHz - b.CenterHz
		if math.Abs(offset)+widthHz/2 > b.WidebandRate/2 {
			return ErrBadChannel
		}
		if ch.Harmonic != 0 && b.SwitchRateHz <= 0 {
			return ErrNoSwitchRate
		}
		effective := offset + float64(ch.Harmonic)*b.SwitchRateHz
		binF := effective / binHz
		if math.Abs(binF-math.Round(binF)) > 1e-6 {
			return ErrOffGrid
		}
		chans = append(chans, bankChan{bin: int(math.Round(binF))})
	}
	tf := b.TransitionFraction
	if tf <= 0 {
		tf = 0.25
	}
	taps := b.Taps
	if taps <= 0 {
		taps = 129
	}
	b.decim = int(math.Round(factor))
	b.proto = dsp.LowPass(widthHz/2*(1+tf), b.WidebandRate, taps).Taps
	b.plan = dsp.PlanFFT(b.Bins)
	b.lanes = nil
	b.growLanes(1)
	for i := range chans {
		b.initTwiddle(&chans[i])
	}
	b.chans = chans
	b.recv = nil
	b.outs = nil
	return nil
}

// initTwiddle converts the signed grid index into the FFT readout bin and
// tabulates the decimation phasor over one period.
func (b *FilterBank) initTwiddle(c *bankChan) {
	m := b.Bins
	bin := ((-c.bin)%m + m) % m // DFT evaluated at −B lands on bin (−B) mod M
	g := ((c.bin*b.decim)%m + m) % m
	period := 1
	if g != 0 {
		period = m / gcd(m, g)
	}
	tw := make([]complex128, period)
	for j := 0; j < period; j++ {
		// Reduce g·j mod M before forming the angle so long captures do
		// not accumulate argument error.
		tw[j] = cmplx.Rect(1, -2*math.Pi*float64((g*j)%m)/float64(m))
	}
	c.bin = bin
	c.tw = tw
}

func gcd(a, c int) int {
	for c != 0 {
		a, c = c, a%c
	}
	return a
}

// ExtractAll runs the one-pass filterbank over a capture and returns one
// baseband stream per configured channel, in Configure order.
func (b *FilterBank) ExtractAll(x []complex128) ([][]complex128, error) {
	return b.ExtractAllInto(nil, x)
}

// ExtractAllInto is ExtractAll with append-style buffer reuse: dst's
// per-channel slices are reused when their capacity suffices. None of
// them may alias x. Once dst is warm the per-block hot path — polyphase
// branch accumulation, the length-M FFT, and the per-channel twiddled
// readout — allocates nothing.
func (b *FilterBank) ExtractAllInto(dst [][]complex128, x []complex128) ([][]complex128, error) {
	dst, err := b.outputs(dst, x)
	if err != nil {
		return nil, err
	}
	b.extract(dst, x, 0, len(dst[0]), &b.lanes[0])
	return dst, nil
}

// outputs sizes dst to one len(x)/D-sample slice per channel, reusing
// capacity, and rejects a slice that aliases x.
func (b *FilterBank) outputs(dst [][]complex128, x []complex128) ([][]complex128, error) {
	if len(b.chans) == 0 {
		return nil, ErrNotConfigured
	}
	nc := len(b.chans)
	nOut := (len(x) + b.decim - 1) / b.decim
	if cap(dst) < nc {
		grown := make([][]complex128, nc)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:nc]
	for i := range dst {
		if dsp.Aliases(dst[i], x) {
			return nil, ErrAliased
		}
		if cap(dst[i]) < nOut {
			dst[i] = make([]complex128, nOut)
		}
		dst[i] = dst[i][:nOut]
	}
	return dst, nil
}

// growLanes makes sure lanes[0..n) exist.
func (b *FilterBank) growLanes(n int) {
	for len(b.lanes) < n {
		m := b.plan.Len()
		b.lanes = append(b.lanes, bankLane{u: make([]complex128, m), bu: make([]complex128, m)})
	}
}

// extract is the per-block hot path over output instants [lo, hi). Output
// sample j of every channel is produced from input window
// x[jD−taps+1 .. jD]: M branch sums, one M-point transform, one twiddled
// readout per channel. Sample j depends on j alone, never on the range
// it was computed in, so any split of the instants gives the same bits.
func (b *FilterBank) extract(out [][]complex128, x []complex128, lo, hi int, ln *bankLane) {
	m, d := b.Bins, b.decim
	proto := b.proto
	u := ln.u
	for j := lo; j < hi; j++ {
		t := j * d
		maxTap := len(proto) - 1
		if t < maxTap {
			maxTap = t
		}
		for r := 0; r < m; r++ {
			var acc complex128
			for tap := r; tap <= maxTap; tap += m {
				acc += x[t-tap] * complex(proto[tap], 0)
			}
			u[r] = acc
		}
		bu := b.plan.Forward(ln.bu, u)
		for ci := range b.chans {
			c := &b.chans[ci]
			out[ci][j] = bu[c.bin] * c.tw[j%len(c.tw)]
		}
	}
}

// ReceiveAll is the full AP receive stage on the worker pool, par.For
// (workers ≤ 0 means GOMAXPROCS): the extraction's output instants split
// into one contiguous range per lane, then every channel's baseband
// handed to its own modem.StreamReceiver. cfg is the shared per-channel
// modem numerology (see ChannelConfig); payloadLens[i] is channel i's
// expected payload size. Results are indexed by channel and are
// identical for any worker count: every output sample is computed the
// same way on whichever lane holds it, and each channel's receiver is
// touched by exactly one worker per call.
func (b *FilterBank) ReceiveAll(x []complex128, cfg modem.Config, payloadLens []int, workers int) ([][]modem.StreamFrame, error) {
	if len(payloadLens) != len(b.chans) {
		return nil, errors.New("apdsp: payloadLens must match configured channels")
	}
	outs, err := b.outputs(b.outs, x)
	if err != nil {
		return nil, err
	}
	b.outs = outs
	nOut := len(outs[0])
	lanes := par.Lanes(workers, nOut)
	b.growLanes(lanes)
	par.For(lanes, lanes, func(_, k int) {
		b.extract(outs, x, k*nOut/lanes, (k+1)*nOut/lanes, &b.lanes[k])
	})
	if b.recv == nil || b.recvCfg != cfg {
		b.recv = make([]*modem.StreamReceiver, len(b.chans))
		for i := range b.recv {
			b.recv[i] = modem.NewStreamReceiver(cfg)
		}
		b.recvCfg = cfg
	}
	results := make([][]modem.StreamFrame, len(b.chans))
	par.For(workers, len(b.chans), func(_, i int) {
		results[i] = b.recv[i].ReceiveAll(outs[i], payloadLens[i])
	})
	return results, nil
}
