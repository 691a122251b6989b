// Wafer-scale locality: Cerebras-style systems interconnect hundreds of
// dies into one big 2D mesh, and — as the paper's background observes —
// "as the network diameter is so large, they have to keep the
// communication as localized as possible" (§II-B). This example measures
// why: on 64 chiplets, the flat 2D-mesh is competitive when traffic stays
// in the neighborhood, but collapses against the hypercube the moment the
// workload communicates globally.
package main

import (
	"context"
	"fmt"
	"log"

	"chipletnet"
)

func main() {
	topos := []chipletnet.Topology{
		chipletnet.MeshTopology(8, 8),
		chipletnet.HypercubeTopology(6),
	}

	fmt.Println("64 chiplets, 0.35 flits/node/cycle; cells: avg latency / accepted (*=saturated)")
	fmt.Printf("%-22s %24s %24s\n", "traffic", "flat 2D-mesh", "hypercube")

	for _, pattern := range []string{"neighbor", "uniform", "bit-complement"} {
		fmt.Printf("%-22s", pattern)
		for _, topo := range topos {
			cfg := chipletnet.DefaultConfig()
			cfg.Topology = topo
			cfg.Pattern = pattern
			cfg.InjectionRate = 0.35
			cfg.WarmupCycles = 500
			cfg.MeasureCycles = 2500
			res, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{})
			if err != nil {
				log.Fatal(err)
			}
			mark := " "
			if res.Saturated() {
				mark = "*"
			}
			fmt.Printf(" %12.1f / %.3f%s", res.AvgLatency, res.AcceptedFlitsPerNodeCycle, mark)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Localized (neighbor) traffic hides the mesh's O(sqrt N) diameter;")
	fmt.Println("global patterns (uniform, bit-complement) expose it. The hypercube")
	fmt.Println("built from the same chiplets removes the locality requirement.")
}
