// Command mmx-sim runs a configurable mmX deployment: a room, an AP, a
// fleet of camera nodes and optional walking people, simulated for a
// duration, reporting per-node SINR, frame delivery and aggregate goodput.
//
// Usage:
//
//	mmx-sim -nodes 8 -duration 5 -blockers 2
//	mmx-sim -room 12x8 -nodes 20 -rate 8 -seed 3
//	mmx-sim -nodes 8 -drop 0.3 -dup 0.15 -crash 2@0.5 -reboot 2@1.5 -ap-restart 2@0.25
//	mmx-sim -nodes 20 -churn-rate 4 -churn-dwell 1.5 -validate
//	mmx-sim -aps 4 -reuse 2 -roam-hysteresis-db 3 -nodes 16 -churn-rate 5 -validate
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"mmx"
	"mmx/internal/profile"
)

func main() {
	roomSpec := flag.String("room", "6x4", "room size WxH in meters")
	aps := flag.Int("aps", 1, "number of access points, spread across the room")
	reuse := flag.Int("reuse", 1, "frequency-reuse factor: partition the band into this many slices across neighboring APs")
	roamHystDB := flag.Float64("roam-hysteresis-db", 0, "enable roaming between APs when a candidate beats the serving SNR by this many dB (0 disables)")
	nodes := flag.Int("nodes", 5, "number of camera nodes")
	rateMbps := flag.Float64("rate", 8, "per-camera application rate (Mbps)")
	blockers := flag.Int("blockers", 1, "number of walking people")
	duration := flag.Float64("duration", 3, "simulated seconds")
	seed := flag.Uint64("seed", 1, "simulation seed")
	drop := flag.Float64("drop", 0, "control side-channel frame drop probability")
	dup := flag.Float64("dup", 0, "control side-channel duplicate probability")
	trunc := flag.Float64("trunc", 0, "control side-channel truncation probability")
	leaseTTL := flag.Float64("lease-ttl", 1.0, "spectrum lease TTL in seconds (0 disables expiry)")
	churnRate := flag.Float64("churn-rate", 0, "mean Poisson arrivals per second of extra transient nodes mid-run")
	churnDwell := flag.Float64("churn-dwell", 1, "mean seconds a churned-in node stays before leaving")
	validate := flag.Bool("validate", false, "audit ValidateSpectrum after every membership event; exit non-zero on failure")
	crash := flag.String("crash", "", "comma-separated node crash events, each ID@seconds")
	reboot := flag.String("reboot", "", "comma-separated node reboot events, each ID@seconds")
	apRestart := flag.String("ap-restart", "", "AP restart as start@downFor seconds")
	coupling := flag.String("coupling", "auto", "interference engine pruning: auto (every pair below the crossover size, pruned above) or sparse (pruned from the first join)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	flag.Parse()

	stopProfiles, err := profile.Start("", *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProfiles()

	var w, h float64
	if _, err := fmt.Sscanf(strings.ToLower(*roomSpec), "%fx%f", &w, &h); err != nil {
		fmt.Fprintf(os.Stderr, "bad -room %q (want WxH)\n", *roomSpec)
		os.Exit(2)
	}
	if *aps < 1 {
		fmt.Fprintf(os.Stderr, "bad -aps %d (want at least 1)\n", *aps)
		os.Exit(2)
	}
	if *reuse < 1 {
		fmt.Fprintf(os.Stderr, "bad -reuse %d (want at least 1)\n", *reuse)
		os.Exit(2)
	}
	crashes := parseEvents(*crash, "-crash")
	reboots := parseEvents(*reboot, "-reboot")
	var restartAt, restartDown float64
	restartAP := 0 // the construction-time AP unless the spec names one
	if *apRestart != "" {
		if _, err := fmt.Sscanf(*apRestart, "%f@%f@%d", &restartAt, &restartDown, &restartAP); err == nil {
			if restartAP < 0 || restartAP >= *aps {
				fmt.Fprintf(os.Stderr, "bad -ap-restart %q: AP %d outside [0, %d)\n", *apRestart, restartAP, *aps)
				os.Exit(2)
			}
		} else if _, err := fmt.Sscanf(*apRestart, "%f@%f", &restartAt, &restartDown); err != nil {
			fmt.Fprintf(os.Stderr, "bad -ap-restart %q (want start@downFor or start@downFor@ap)\n", *apRestart)
			os.Exit(2)
		}
	}
	// Each rule states what a good value satisfies, so NaN fails it.
	positive := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
	nonNegative := func(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }
	timesOK := func(evs []faultEvent) bool {
		for _, ev := range evs {
			if !nonNegative(ev.at) {
				return false
			}
		}
		return true
	}
	for _, r := range []struct {
		name, want string
		ok         bool
	}{
		{"room", "WxH, each finite meters above 0", positive(w) && positive(h)},
		{"duration", "finite seconds above 0", positive(*duration)},
		{"nodes", "at least 0", *nodes >= 0},
		{"blockers", "at least 0", *blockers >= 0},
		{"rate", "finite Mbps above 0", positive(*rateMbps)},
		{"drop", "a probability in [0, 1]", *drop >= 0 && *drop <= 1},
		{"dup", "a probability in [0, 1]", *dup >= 0 && *dup <= 1},
		{"trunc", "a probability in [0, 1]", *trunc >= 0 && *trunc <= 1},
		{"churn-rate", "finite arrivals per second, at least 0", nonNegative(*churnRate)},
		{"churn-dwell", "finite seconds above 0", positive(*churnDwell)},
		{"lease-ttl", "finite seconds, at least 0", nonNegative(*leaseTTL)},
		{"roam-hysteresis-db", "finite dB, at least 0", nonNegative(*roamHystDB)},
		{"crash", "event times in finite seconds, at least 0", timesOK(crashes)},
		{"reboot", "event times in finite seconds, at least 0", timesOK(reboots)},
		{"ap-restart", "a finite start of at least 0 s and a finite down time above 0 s",
			*apRestart == "" || nonNegative(restartAt) && positive(restartDown)},
	} {
		if !r.ok {
			fmt.Fprintf(os.Stderr, "bad -%s %s (want %s)\n", r.name, flag.Lookup(r.name).Value, r.want)
			os.Exit(2)
		}
	}

	env := mmx.NewEnvironment(w, h, *seed)
	apPose := mmx.Pose{X: 0.3, Y: h / 2, FacingRad: 0}
	nw := env.NewNetwork(apPose, *seed+1)
	// Additional APs spread evenly along the room's centerline (AP 0
	// keeps the legacy corner pose, so -aps 1 runs are byte-identical to
	// builds that predate the flag).
	apPoses := []mmx.Pose{apPose}
	for i := 1; i < *aps; i++ {
		x := 0.3 + (w-0.6)*float64(i)/float64(*aps-1)
		p := mmx.Pose{X: x, Y: h / 2, FacingRad: 0}
		if _, err := nw.AddAP(p); err != nil {
			fmt.Fprintf(os.Stderr, "add AP %d: %v\n", i, err)
			os.Exit(2)
		}
		apPoses = append(apPoses, p)
	}
	// nearestAP returns the pose of the AP a node at (x, y) will
	// associate with, so placements can aim the node's beams at it.
	nearestAP := func(x, y float64) mmx.Pose {
		best := apPoses[0]
		bestD := math.Hypot(x-best.X, y-best.Y)
		for _, p := range apPoses[1:] {
			if d := math.Hypot(x-p.X, y-p.Y); d < bestD {
				best, bestD = p, d
			}
		}
		return best
	}
	if *reuse > 1 {
		if err := nw.PlanReuse(*reuse); err != nil {
			fmt.Fprintf(os.Stderr, "plan reuse: %v\n", err)
			os.Exit(2)
		}
	}
	if *roamHystDB > 0 {
		nw.SetRoamingPolicy(&mmx.RoamPolicy{HysteresisDB: *roamHystDB})
	}
	switch strings.ToLower(*coupling) {
	case "auto":
		nw.SetCouplingMode(mmx.CouplingAuto)
	case "sparse":
		nw.SetCouplingMode(mmx.CouplingSparse)
	default:
		fmt.Fprintf(os.Stderr, "bad -coupling %q (want auto or sparse)\n", *coupling)
		os.Exit(2)
	}
	nw.SetLeaseTTL(*leaseTTL, *leaseTTL*0.3)
	if *drop > 0 || *dup > 0 || *trunc > 0 {
		nw.SetLossyControl(*seed+2, *drop, *dup, *trunc)
	}
	plan := mmx.NewFaultPlan()
	for _, ev := range crashes {
		plan.Crash(ev.at, uint32(ev.id))
	}
	for _, ev := range reboots {
		plan.Reboot(ev.at, uint32(ev.id))
	}
	if *apRestart != "" {
		plan.RestartAPAt(restartAt, restartDown, restartAP)
	}
	if len(plan.Events) > 0 {
		nw.SetFaultPlan(plan)
	}

	// Deterministic placement ring with varied orientations.
	for i := 0; i < *nodes; i++ {
		frac := float64(i) / float64(*nodes)
		x := 1 + (w-1.8)*frac
		y := 0.5 + (h-1.0)*math.Abs(math.Sin(frac*math.Pi*3))
		home := nearestAP(x, y)
		pose := mmx.Facing(x, y, home.X, home.Y)
		pose.FacingRad += (frac - 0.5) * math.Pi / 3
		// Request 25% headroom over the application rate so the PHY
		// never saturates on jitter.
		info, err := nw.Join(uint32(i+1), pose, *rateMbps*1.25e6, mmx.CameraTraffic(*rateMbps))
		if err != nil {
			fmt.Fprintf(os.Stderr, "node %d join failed: %v\n", i+1, err)
			os.Exit(1)
		}
		mode := "FDM"
		if info.SharedViaSDM {
			mode = "SDM"
		}
		via := ""
		if *aps > 1 {
			via = fmt.Sprintf(" via AP %d", info.AP)
		}
		fmt.Printf("node %2d at (%.1f, %.1f): %s channel %.1f MHz wide at %.4f GHz%s\n",
			info.ID, x, y, mode, info.WidthHz/1e6, info.ChannelHz/1e9, via)
	}
	for i := 0; i < *blockers; i++ {
		env.AddBlocker(1.5+float64(i), h/2, 0.6, 0.4*float64(i+1))
	}

	// Pre-plan Poisson churn: transient nodes arrive at -churn-rate per
	// second, dwell for an exponential -churn-dwell, and leave — all
	// inside virtual time, through the same (possibly lossy) control
	// plane as everything else. The plan comes from its own seeded RNG,
	// so two runs with identical flags are byte-identical.
	planned := 0
	if *churnRate > 0 {
		churnRNG := rand.New(rand.NewSource(int64(*seed) + 42))
		at := 0.0
		for id := uint32(1000); ; id++ {
			at += churnRNG.ExpFloat64() / *churnRate
			if at >= *duration {
				break
			}
			frac := churnRNG.Float64()
			x := 1 + (w-1.8)*frac
			y := 0.5 + (h-1.0)*churnRNG.Float64()
			home := nearestAP(x, y)
			nw.ScheduleJoin(at, id, mmx.Facing(x, y, home.X, home.Y),
				*rateMbps*1.25e6, mmx.CameraTraffic(*rateMbps))
			nw.ScheduleLeave(at+churnRNG.ExpFloat64()**churnDwell, id)
			planned++
		}
	}
	if *validate {
		nw.OnMembershipChange(func(event string, id uint32) {
			if err := nw.ValidateSpectrum(); err != nil {
				fmt.Fprintf(os.Stderr, "spectrum inconsistent after %s of node %d: %v\n", event, id, err)
				os.Exit(1)
			}
		})
	}

	fmt.Printf("\nrunning %d nodes for %.1f s in a %.0fx%.0f m room with %d walkers",
		*nodes, *duration, w, h, *blockers)
	if planned > 0 {
		fmt.Printf(" and %d transient nodes", planned)
	}
	fmt.Print("...\n\n")
	stats := nw.Run(*duration, 0.05, 10)

	fmt.Printf("%-5s %-11s %-11s %-8s %-7s %-8s %-8s %-8s %-9s %-9s %-8s\n",
		"node", "mean SINR", "min SINR", "sent", "lost", "dropped", "outage#", "active", "airtime", "delay", "outage")
	for _, st := range stats.PerNode {
		fmt.Printf("%-5d %-11.1f %-11.1f %-8d %-7d %-8d %-8d %-8.2f %-9.2f %-9.2g %-8.1f%%\n",
			st.ID, st.MeanSINRdB, st.MinSINRdB, st.FramesSent, st.FramesLost,
			st.FramesDropped, st.FramesOutage, st.ActiveS, st.AirtimeFraction,
			st.MeanDelayS, 100*st.OutageFraction)
	}
	fmt.Printf("\naggregate goodput: %.1f Mbps (offered %.1f Mbps)\n",
		stats.TotalGoodputBps()/1e6, float64(*nodes)**rateMbps)
	if stats.Joins+stats.Leaves+stats.JoinsFailed > 0 {
		fmt.Printf("churn: %d joins (%d failed), %d leaves, %d members at end\n",
			stats.Joins, stats.JoinsFailed, stats.Leaves, len(nw.Reports()))
	}
	if len(stats.PerAP) > 1 {
		fmt.Printf("roaming: %d roams (%d failed)\n", stats.Roams, stats.RoamsFailed)
		for _, a := range stats.PerAP {
			fmt.Printf("  AP %d: %d joins, %d leaves, %d roams in, %d roams out, %d lease expiries, %d members at end\n",
				a.AP, a.Joins, a.Leaves, a.RoamsIn, a.RoamsOut, a.LeaseExpiries, a.Members)
		}
	}
	c := stats.Control
	if c != (mmx.ControlStats{}) {
		fmt.Printf("control plane: %d renews (%d failed), %d rejoins, %d resyncs, %d lease expiries, %d promotions, %d crashes, %d reboots, %d AP restarts\n",
			c.RenewsSent, c.RenewsFailed, c.Rejoins, c.Resyncs,
			c.LeaseExpiries, c.Promotions, c.Crashes, c.Reboots, c.APRestarts)
	}
}

type faultEvent struct {
	id int
	at float64
}

// parseEvents parses a comma-separated "ID@seconds" list.
func parseEvents(spec, flagName string) []faultEvent {
	if spec == "" {
		return nil
	}
	var out []faultEvent
	for _, part := range strings.Split(spec, ",") {
		var ev faultEvent
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d@%f", &ev.id, &ev.at); err != nil || ev.id <= 0 {
			fmt.Fprintf(os.Stderr, "bad %s entry %q (want ID@seconds)\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, ev)
	}
	return out
}
