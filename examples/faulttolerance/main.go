// Faulttolerance: run the paper's headline hypercube under hostile
// conditions — bit errors on every die-to-die link plus a permanent
// interface failure mid-run — and show that the network degrades instead
// of failing: corrupted flits are retransmitted link-locally, traffic
// re-weights onto the surviving interfaces of the killed link's group, the
// degraded topology is re-certified deadlock-free on the fly, and not a
// single packet is lost or duplicated.
package main

import (
	"context"
	"fmt"
	"log"

	"chipletnet"
)

func main() {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(4) // 16 chiplets
	cfg.InjectionRate = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2500
	cfg.DrainCycles = 50000 // let the network empty so completeness is checkable
	cfg.CheckCredits = true // audit credit conservation every cycle

	// A healthy run first, for comparison.
	healthy, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{})
	if err != nil {
		log.Fatal(err)
	}

	// Now the hostile one: BER 1e-4 on the die-to-die links, and kill the
	// first inter-chiplet channel a third of the way into the run.
	sys, err := chipletnet.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pair := sys.Topo.CrossPairs()[0]
	cfg.Fault.BER = 1e-4
	cfg.Fault.Kill = []chipletnet.FaultKill{{Cycle: 1000, A: pair.A, B: pair.B}}

	res, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{})
	if err != nil {
		log.Fatal(err) // typed: fault.ErrPartitioned / ErrDegradedUnsafe
	}
	st := res.FaultStats

	fmt.Println("16-chiplet hypercube @ 0.3 flits/node/cycle, BER 1e-4, one interface killed")
	fmt.Println()
	fmt.Printf("  healthy:   avg latency %6.1f cycles, %d packets delivered\n",
		healthy.AvgLatency, healthy.DeliveredPackets)
	fmt.Printf("  degraded:  avg latency %6.1f cycles, %d packets delivered\n",
		res.AvgLatency, st.DeliveredPackets)
	fmt.Println()
	fmt.Printf("  layer 1 (link retransmission): %d bundles corrupted, %d retransmissions\n",
		st.CorruptedBundles, st.Retransmissions)
	fmt.Printf("  layer 2 (graceful degradation): %d link killed, %d packets rerouted\n",
		st.LinksKilled, st.ReroutedPackets)
	fmt.Printf("  delivery: %d lost, %d duplicated, drained=%v\n",
		st.LostPackets, st.DuplicatePackets, res.Drained)
	fmt.Println()
	fmt.Println("fault event log:")
	for _, ev := range res.FaultEvents {
		if ev.Kind == "corrupt" {
			continue // the structural story only
		}
		fmt.Printf("  cycle %-6d %-20s %s\n", ev.Cycle, ev.Kind, ev.Detail)
	}
}
