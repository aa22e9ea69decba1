package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"mmx/internal/modem"
	"mmx/internal/par"
	"mmx/internal/rf"
	"mmx/internal/stats"
)

// serialTransmit is TransmitOTAM as it was before the batch draws and the
// chunked passes: the frame synthesized, then one loop walking the phase
// and rotating each sample, then one loop adding noise, two draws per
// sample. Its products are rounded as the kernels round them; amd64 never
// fuses, so there it is the old capture's every bit. It draws one deviate
// a call, which StdNormals leaves equal to one batch.
func serialTransmit(l *Link, payload []byte, pad int, rng *stats.RNG) []complex128 {
	ev := l.Evaluate()
	bits, err := modem.BuildFrame(payload)
	if err != nil {
		panic(err)
	}
	spb := l.Cfg.Modem.SamplesPerSymbol()
	x := make([]complex128, pad+len(bits)*spb+spb)
	frame := x[pad : pad+len(bits)*spb]
	modem.SynthesizeInto(frame, l.Cfg.Modem, bits, ev.G0, ev.G1)
	sigma := math.Sqrt(2 * math.Pi * rf.LinewidthHz / l.Cfg.Modem.SampleRate)
	phase := 0.0
	for i, v := range frame {
		phase += 0 + float64(sigma*normal(rng))
		s, c := math.Sincos(phase)
		frame[i] = complex(float64(real(v)*c)-float64(imag(v)*s), float64(real(v)*s)+float64(imag(v)*c))
	}
	sigma = math.Sqrt(ev.NoisePowerW / 2)
	for i := range x {
		re := 0 + float64(sigma*normal(rng))
		x[i] += complex(re, 0+float64(sigma*normal(rng)))
	}
	return x
}

// normal draws one standard deviate.
func normal(rng *stats.RNG) float64 {
	var z [1]float64
	rng.StdNormals(z[:])
	return z[0]
}

// TestTransmitMatchesSerialOracle holds every capture sample of 300 OTAM
// frames (1–40 B, pads 0–40) to the serial path bit for bit, and the RNG
// state after each frame to the serial one's, at GOMAXPROCS 1, 2 and 8;
// every frame still decodes.
func TestTransmitMatchesSerialOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	frames := 300
	if testing.Short() {
		frames = 30
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		l := facingLink(uint64(procs), 10, 6, 3)
		rng, oracle := stats.NewRNG(uint64(procs)), stats.NewRNG(uint64(procs))
		for f := 0; f < frames; f++ {
			payload := make([]byte, 1+f%40)
			for i := range payload {
				payload[i] = byte(7*f + i)
			}
			pad := (13 * f) % 41
			x, err := l.TransmitOTAM(payload, pad, rng)
			if err != nil {
				t.Fatal(err)
			}
			want := serialTransmit(l, payload, pad, oracle)
			if len(x) != len(want) {
				t.Fatalf("GOMAXPROCS %d, frame %d: %d samples, serial %d", procs, f, len(x), len(want))
			}
			for i := range x {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("GOMAXPROCS %d, frame %d: sample %d = %v, serial %v", procs, f, i, x[i], want[i])
				}
			}
			if *rng != *oracle {
				t.Fatalf("GOMAXPROCS %d, frame %d: RNG state differs from the serial path's", procs, f)
			}
			if got, _, err := l.Receive(x, len(payload)); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("GOMAXPROCS %d, frame %d: decoded %q, %v", procs, f, got, err)
			}
		}
	}
}

// roundTrips sends frames over l and hashes every capture sample and
// every decoded byte.
func roundTrips(t *testing.T, l *Link, seed uint64, frames int) [sha256.Size]byte {
	h := sha256.New()
	rng := stats.NewRNG(seed)
	for f := 0; f < frames; f++ {
		payload := []byte{byte(seed), byte(f), 0xa5, 0x5a}
		x, err := l.TransmitOTAM(payload, rng.Intn(40), rng)
		if err != nil {
			t.Error(err)
			return [sha256.Size]byte{}
		}
		for _, v := range x {
			binary.Write(h, binary.LittleEndian, v)
		}
		got, _, err := l.Receive(x, len(payload))
		if err != nil {
			t.Error(err)
		}
		h.Write(got)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestConcurrentLinksMatchSerial runs Send and Receive on their own Links
// from several goroutines at once, and MeasureBER from par.For lanes the
// way experiments.RunTrials does, while the chunked passes share the
// lanes: each must give the bytes of a serial run. Run it under go test
// -race -count=10.
func TestConcurrentLinksMatchSerial(t *testing.T) {
	const links, frames = 4, 4
	newLink := func(i int) *Link { return facingLink(uint64(40+i), 10, 6, 2+float64(i)/2) }
	var serial [links][sha256.Size]byte
	for i := range serial {
		serial[i] = roundTrips(t, newLink(i), uint64(i), frames)
	}
	var concurrent [links][sha256.Size]byte
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = roundTrips(t, newLink(i), uint64(i), frames)
		}()
	}
	wg.Wait()
	if concurrent != serial {
		t.Error("round trips on concurrent goroutines differ from the serial run")
	}

	ber := func(i int) float64 { return newLink(i).MeasureBER(3, 16, true, stats.NewRNG(uint64(i))) }
	want := make([]float64, 2*links)
	for i := range want {
		want[i] = ber(i % links)
	}
	got := make([]float64, len(want))
	par.For(0, len(got), func(_, i int) { got[i] = ber(i % links) })
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("MeasureBER on a For lane, trial %d: %v, serial %v", i, got[i], want[i])
		}
	}
}
