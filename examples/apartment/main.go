// Apartment: a two-room home with a drywall partition — the realistic
// smart-home geometry where one hub cannot see every device. The link
// survey shows why: the bedroom camera reaches the living-room hub only
// through ~7 dB of drywall plus wall reflections. The deployment section
// then does what a real installation does — adds a second hub in the
// bedroom, splits the band across the two (frequency reuse), and turns
// on hysteresis roaming so a device whose hub gets blocked mid-run
// re-homes to the other one through the ordinary join handshake.
package main

import (
	"fmt"
	"log"
	"math"

	"mmx"
)

func main() {
	// 10 m x 5 m apartment, partition at x=6 with a doorway gap.
	env := mmx.NewEnvironment(10, 5, 21)
	env.AddWall(6, 0, 6, 3.4, mmx.Drywall) // wall; doorway from y=3.4 to 5

	hub := mmx.Pose{X: 1, Y: 2.5, FacingRad: 0}
	bedroomHub := mmx.Pose{X: 9.7, Y: 2.5, FacingRad: math.Pi}

	devices := []struct {
		name string
		pose mmx.Pose
	}{
		{"living-room TV", mmx.Facing(4.5, 2.5, hub.X, hub.Y)},
		{"kitchen sensor", mmx.Facing(3.0, 4.5, hub.X, hub.Y)},
		{"bedroom camera", mmx.Facing(8.5, 1.0, bedroomHub.X, bedroomHub.Y)},
		// The hall camera sits in the bedroom doorway zone but watches the
		// hallway toward the living room: nearest hub is the bedroom one,
		// best antenna gain points the other way — the classic marginal
		// association that roaming exists to fix.
		{"hall camera", mmx.Facing(6.8, 4.0, hub.X, hub.Y)},
	}

	fmt.Println("per-device link survey against the living-room hub alone:")
	for _, d := range devices {
		link := env.NewLink(mmx.Facing(d.pose.X, d.pose.Y, hub.X, hub.Y), hub)
		q := link.Quality()
		rate := link.AdaptRate(1e-6)
		fmt.Printf("  %-16s SNR %5.1f dB  ->  %s\n",
			d.name, q.SNRdB, formatRate(rate))
	}

	// Push a coded frame through the wall from the bedroom camera.
	bedroom := env.NewLink(mmx.Facing(8.5, 1.0, hub.X, hub.Y), hub)
	payload := []byte("motion detected in the bedroom")
	capture, err := bedroom.SendCoded(payload)
	if err != nil {
		log.Fatal(err)
	}
	res, corrections, err := bedroom.ReceiveCoded(capture, len(payload))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthrough-wall coded frame: %q (mode %s, %d bits repaired)\n",
		res.Payload, res.Mode, corrections)

	// The two-hub deployment: one AP per room, the band partitioned
	// between them, and roaming armed with 3 dB of hysteresis. Every
	// membership event (including roams) is audited against the MAC books.
	nw := env.NewNetwork(hub, 33)
	if _, err := nw.AddAP(bedroomHub); err != nil {
		log.Fatal(err)
	}
	if err := nw.PlanReuse(2); err != nil {
		log.Fatal(err)
	}
	nw.SetRoamingPolicy(&mmx.RoamPolicy{HysteresisDB: 3})
	nw.OnMembershipChange(func(event string, id uint32) {
		if err := nw.ValidateSpectrum(); err != nil {
			log.Fatalf("spectrum inconsistent after %s of node %d: %v", event, id, err)
		}
	})
	for i, d := range devices {
		demand := 8e6
		if i == 1 {
			demand = 1e5
		}
		info, err := nw.Join(uint32(i+1), d.pose, demand, mmx.CameraTraffic(8))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s joined via AP %d\n", d.name, info.AP)
	}

	// Someone wanders into the bedroom and parks between the hall camera
	// and its hub; the camera's serving path degrades, and the policy
	// re-homes it to the living-room hub through the open doorway.
	env.AddBlocker(7.65, 3.56, 0.05, 0)
	stats := nw.Run(3, 0.05, 10)
	fmt.Println("\n3 s with someone standing in the bedroom:")
	for i, st := range stats.PerNode {
		fmt.Printf("  %-16s mean SINR %5.1f dB, lost %d/%d frames\n",
			devices[i].name, st.MeanSINRdB, st.FramesLost, st.FramesSent)
	}
	fmt.Printf("aggregate goodput: %.1f Mbps\n", stats.TotalGoodputBps()/1e6)
	fmt.Printf("roams: %d (%d failed)\n", stats.Roams, stats.RoamsFailed)
	for i := range devices {
		for _, iv := range stats.APHistory[i] {
			fmt.Printf("  %-16s on AP %d from %.2f s to %.2f s\n",
				devices[i].name, iv.AP, iv.FromS, iv.ToS)
		}
	}
}

func formatRate(bps float64) string {
	switch {
	case bps >= 1e6:
		return fmt.Sprintf("%.0f Mbps", bps/1e6)
	case bps > 0:
		return fmt.Sprintf("%.0f kbps", bps/1e3)
	default:
		return "no link"
	}
}
