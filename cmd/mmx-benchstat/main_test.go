package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: mmx
BenchmarkOTAMFrameRoundtrip-8   	    1090	   1057803 ns/op	  686877 B/op	      63 allocs/op
BenchmarkNetworkSINREvaluation-8	     500	   2400000 ns/op	  120000 B/op	     800 allocs/op
BenchmarkFig11BERCDF             	    1644	    721056 ns/op	  217144 B/op	    1645 allocs/op
PASS
ok  	mmx	4.2s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	rt := got["BenchmarkOTAMFrameRoundtrip"]
	if rt.NsPerOp != 1057803 || rt.BytesPerOp != 686877 || rt.AllocsPerOp != 63 {
		t.Errorf("roundtrip metrics = %+v", rt)
	}
	// The un-suffixed (GOMAXPROCS=1 style) name parses too.
	if got["BenchmarkFig11BERCDF"].AllocsPerOp != 1645 {
		t.Errorf("Fig11 metrics = %+v", got["BenchmarkFig11BERCDF"])
	}
}

func TestParseBenchKeepsBestOfRepeats(t *testing.T) {
	in := `BenchmarkX-8 100 2000 ns/op 10 B/op 5 allocs/op
BenchmarkX-8 100 1500 ns/op 12 B/op 6 allocs/op
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	x := got["BenchmarkX"]
	if x.NsPerOp != 1500 {
		t.Errorf("ns/op = %v, want min 1500", x.NsPerOp)
	}
	if x.AllocsPerOp != 6 {
		t.Errorf("allocs/op = %v, want max 6", x.AllocsPerOp)
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	got, err := parseBench(strings.NewReader("PASS\nok mmx 1s\nrandom words\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("parsed %v from noise", got)
	}
}

// TestCheckFailsOnBaselineEntryMissingFromRun: a baseline key with no
// benchmark line behind it (a renamed or deleted rung) must fail the
// check, not drop out of the gate — unless -match excludes it.
func TestCheckFailsOnBaselineEntryMissingFromRun(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.json")
	if err := emit(results, base); err != nil {
		t.Fatal(err)
	}
	if got := check(results, base, 0.15, nil); got != 0 {
		t.Fatalf("run covering every baseline entry: exit %d, want 0", got)
	}
	delete(results, "BenchmarkFig11BERCDF")
	if got := check(results, base, 0.15, nil); got != 1 {
		t.Errorf("baseline entry absent from the run: exit %d, want 1", got)
	}
	if got := check(results, base, 0.15, regexp.MustCompile("Roundtrip|SINR")); got != 0 {
		t.Errorf("absent entry excluded by -match: exit %d, want 0", got)
	}
}
