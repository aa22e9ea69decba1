package simnet

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/faults"
)

// TestLossyRunGoldenAgainstPreRefactor pins the control plane's observable
// behavior across the retry-machine extraction: the committed fingerprint
// in testdata/golden_lossy_run.txt was captured BEFORE the node-side retry
// state machine moved from simnet into netctl.Retrier, so any drift in RNG
// draw order, backoff accounting, or reply matching shows up as a byte
// diff here. The scenario leans on every retry path at once: a badly
// impaired side channel (drop/dup/truncate/delay), a node crash+reboot, an
// AP restart that forces renew-nack rejoins, and mid-run churn joins and
// leaves. Refresh with UPDATE_GOLDEN=1 only for an intentional
// behavior change.
func TestLossyRunGoldenAgainstPreRefactor(t *testing.T) {
	nw := lossyTestNetwork(23, 0.25, 0.15, 0.08)
	nw.Side.DelayProb = 0.1
	nw.Side.DelayMeanS = 0.004
	placeNodes(t, nw, 8, 60e6)
	nw.Faults = faults.NewPlan().
		Crash(0.4, 2).
		Reboot(1.2, 2).
		RestartAPAt(1.8, 0.25, 0)
	nw.ScheduleJoin(0.6, 100, channel.Pose{
		Pos: channel.Vec2{X: 3.1, Y: 1.4}, Orientation: math.Pi,
	}, 60e6, HDCamera(8))
	nw.ScheduleLeave(1.5, 3)
	st := nw.Run(3.0, 0.05, -5)
	got := fingerprintRunStats(st)

	golden := filepath.Join("testdata", "golden_lossy_run.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("refreshed %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 to capture): %v", err)
	}
	if got != string(want) {
		t.Fatalf("lossy run diverged from the pre-refactor golden fingerprint\ngot:\n%s\nwant:\n%s", got, want)
	}
}
