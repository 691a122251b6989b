// Command chipletlint enforces the repository's determinism invariants on
// simulator packages (the module root and internal/...). A cycle-accurate
// simulator must produce bit-identical results for a given seed, so the
// driver runs six analyzers over every matched package:
//
//	rngsource  no package may import math/rand except internal/rng — all
//	           randomness flows through the seeded, stable generator
//	           (test files included);
//	wallclock  simulator packages must not read wall-clock time
//	           (time.Now/Since/Sleep/Until) or construct timers
//	           (time.After/Tick/NewTimer/NewTicker/AfterFunc) —
//	           simulated time is the only clock;
//	goroutine  internal packages must not spawn goroutines — the cycle
//	           loop is strictly serial; parallelism lives at the sweep
//	           layer (module root);
//	mapiter    map iteration must not produce order-dependent effects: a
//	           range-over-map body may not append to or assign outer
//	           variables, or call methods on them, unless the function
//	           later sorts the collected values (collect-then-sort);
//	retrysleep no bare time.Sleep inside a loop anywhere (commands
//	           included) — retry and poll loops pace themselves through
//	           internal/service/backoff, which is capped-exponential and
//	           cancellation-aware;
//	durablefile no os.O_APPEND or os.Rename outside internal/jsonl in
//	           non-test files (commands included) — append-only stores
//	           are jsonl.Log values and atomic replaces go through
//	           jsonl.WriteAtomic, so every durable file shares one fsync
//	           and repair discipline.
//
// internal/service (the campaign daemon's process layer) is exempt from
// the simulator-scope rules — it legitimately owns goroutines, timers and
// wall-clock deadlines — but not from rngsource, retrysleep or
// durablefile.
//
// The analyzers are written against internal/analysis, a dependency-free
// mirror of the golang.org/x/tools/go/analysis framework (the repository
// vendors no third-party modules); the analysis is purely syntactic
// (go/ast, go/parser). Usage:
//
//	chipletlint ./...
//
// Findings print as file:line:col: message in deterministic sorted order.
// Exit status is 1 when any finding is reported (or on a parse error).
package main

import (
	"flag"
	"fmt"
	"os"

	"chipletnet/internal/analysis"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := analysis.Run(patterns, []*analysis.Analyzer{
		rngsourceAnalyzer,
		wallclockAnalyzer,
		goroutineAnalyzer,
		mapiterAnalyzer,
		retrysleepAnalyzer,
		durablefileAnalyzer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chipletlint: %v\n", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
