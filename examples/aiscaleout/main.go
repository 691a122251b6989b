// AI accelerator scale-out under a QoS-classed workload: the paper's
// Fig. 2 motivation is reusing one chiplet across system scales, and this
// example drives each scale with the traffic such a system actually
// carries — repeated all-reduce phases (collective class) over background
// memory streams (bulk class) and request/response pairs (latency class)
// — instead of a synthetic Bernoulli pattern. The per-class tail
// latencies show what aggregate averages hide: the latency-class p99
// degrades first as the system grows, and the hypercube's lower diameter
// protects exactly that class.
//
// Every run is bit-deterministic: the same binary prints the same table
// every time, and the example asserts it by running one configuration
// twice and comparing per-class p99s exactly.
package main

import (
	"context"
	"fmt"
	"log"

	"chipletnet"
)

const workload = "aiscaleout:allreduce-ring,data=256,compute=200,memrate=0.05,reqrate=0.02"

type scale struct {
	name string
	flat chipletnet.Topology
	cube chipletnet.Topology
}

func main() {
	scales := []scale{
		{"edge (4 chiplets)", chipletnet.MeshTopology(2, 2), chipletnet.HypercubeTopology(2)},
		{"workstation (16 chiplets)", chipletnet.MeshTopology(4, 4), chipletnet.HypercubeTopology(4)},
		{"datacenter node (64 chiplets)", chipletnet.MeshTopology(8, 8), chipletnet.HypercubeTopology(6)},
	}

	fmt.Printf("=== workload: %s ===\n", workload)
	for _, sc := range scales {
		flat := run(sc.flat)
		cube := run(sc.cube)
		fmt.Printf("%s\n", sc.name)
		fmt.Printf("  %-12s %-10s %10s %10s %10s\n", "topology", "class", "pkts", "avg", "p99")
		for _, pair := range []struct {
			label string
			res   chipletnet.Result
		}{{"flat-mesh", flat}, {"hypercube", cube}} {
			for _, cs := range pair.res.Classes {
				fmt.Printf("  %-12s %-10s %10d %10.1f %10.0f\n",
					pair.label, cs.Class, cs.MeasuredPackets, cs.AvgLatency, cs.P99Latency)
			}
		}
		fmt.Println()
	}

	// Determinism check: two runs of the same configuration must agree on
	// every per-class p99 exactly, not approximately.
	a, b := run(scales[1].cube), run(scales[1].cube)
	if len(a.Classes) == 0 || len(a.Classes) != len(b.Classes) {
		log.Fatalf("per-class stats missing or unstable: %d vs %d classes", len(a.Classes), len(b.Classes))
	}
	for i := range a.Classes {
		if a.Classes[i].P99Latency != b.Classes[i].P99Latency {
			log.Fatalf("nondeterministic p99 for class %s: %g vs %g",
				a.Classes[i].Class, a.Classes[i].P99Latency, b.Classes[i].P99Latency)
		}
	}
	fmt.Println("determinism: per-class p99 identical across two runs")
	fmt.Println()
	fmt.Println("The same physical chiplet serves every scale; only the software-defined")
	fmt.Println("interface grouping changes. The latency-class tail widens fastest on the")
	fmt.Println("flat mesh as chiplet count grows — the paper's core scaling argument,")
	fmt.Println("sharpened from averages to the QoS tail.")
}

func run(topo chipletnet.Topology) chipletnet.Result {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = topo
	cfg.Workload = workload
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2500
	res, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
