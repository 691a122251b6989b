// Network interleaving (paper §V): a software-defined interface group
// bundles several physical chiplet-to-chiplet links, but a conventional
// message streams over just one of them. This example measures, on the
// bandwidth-constrained 64-chiplet hypercube, how spreading traffic across
// the group — per message (coarse) or per packet (fine) — changes latency
// and sustained throughput, reproducing the Fig. 16 comparison in miniature.
package main

import (
	"context"
	"fmt"
	"log"

	"chipletnet"
)

func main() {
	fmt.Println("64-chiplet hypercube, off-chip links at half the on-chip bandwidth")
	fmt.Println("cells: avg latency in cycles / accepted flits/node/cycle (* = saturated)")
	fmt.Printf("%-8s %20s %20s %20s\n", "load", "no interleave", "message-level", "packet-level")

	for _, rate := range []float64{0.2, 0.5, 0.8} {
		fmt.Printf("%-8.2f", rate)
		for _, il := range []string{"none", "message", "packet"} {
			cfg := chipletnet.DefaultConfig()
			cfg.Topology = chipletnet.HypercubeTopology(6)
			cfg.Interleave = il
			cfg.InjectionRate = rate
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
			fmt.Printf(" %10.1f / %.3f%s", res.AvgLatency, res.AcceptedFlitsPerNodeCycle, mark)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Without interleaving, one physical link per group carries all the")
	fmt.Println("traffic and the rest idle; packet-level (fine-grained) interleaving")
	fmt.Println("extracts the most bandwidth at the cost of per-packet header tags.")
}
