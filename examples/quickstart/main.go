// Quickstart: build the paper's headline system — 64 chiplets with 4x4
// 2D-mesh NoCs connected as a hypercube — run uniform traffic at a
// moderate load, and compare it against the flat 2D-mesh baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"chipletnet"
)

func main() {
	// Start from the paper's Table II parameters.
	cfg := chipletnet.DefaultConfig()
	cfg.InjectionRate = 0.3 // flits/node/cycle
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2500

	fmt.Println("64 chiplets (4x4-mesh NoC each), uniform traffic @ 0.3 flits/node/cycle")
	fmt.Println()

	for _, topo := range []chipletnet.Topology{
		chipletnet.MeshTopology(8, 8),   // the flat baseline
		chipletnet.HypercubeTopology(6), // the paper's high-radix proposal
	} {
		cfg.Topology = topo
		res, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14v  avg latency %6.1f cycles   p99 %5.0f   accepted %.3f   %.2f pJ/bit\n",
			topo, res.AvgLatency, res.P99Latency, res.AcceptedFlitsPerNodeCycle, res.EnergyPJPerBit)
	}

	fmt.Println()
	fmt.Println("The hypercube interconnection of the same chiplets cuts latency and")
	fmt.Println("energy by replacing long multi-chiplet mesh detours with log2(N)")
	fmt.Println("chiplet-level hops (paper §VII-A).")
}
