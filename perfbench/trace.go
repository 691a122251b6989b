package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Per-cycle and per-packet
// calls (traffic.Source.Tick, router.Fabric.Step, stats.Collector.OnDeliver,
// dse.Store.Lookup) are aggregated into one span per window, so Calls may
// exceed 1; Busy is then the summed duration of those calls, and Start/End
// bound the first and last of them. For a plain span Busy == End-Start.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into tracer.spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int    `json:"calls"`
}

// tracer keeps every span in memory; write dumps them when the benchmark
// ends. It is single-goroutine: the traced runners call into the program
// serially.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a plain span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: now, Calls: 1})
	return len(t.spans) - 1
}

// end closes the plain span id.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.End = t.now()
	s.Busy = s.End - s.Start
}

// window opens an aggregated span under parent; add accumulates calls
// into it.
func (t *tracer) window(name string, parent int) int {
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// add records one call of duration d that ended at offset end into the
// aggregated span id.
func (t *tracer) add(id int, end, d int64) {
	s := &t.spans[id]
	if s.Calls == 0 {
		s.Start = end - d
	}
	s.End = end
	s.Busy += d
	s.Calls++
}

// childBusy returns, per span, the summed busy time of its direct
// children, and each span's root.
func (t *tracer) childBusy() (child []int64, top []int) {
	child = make([]int64, len(t.spans))
	top = make([]int, len(t.spans))
	for i, s := range t.spans {
		top[i] = i
		if s.Parent >= 0 { // parents precede their children
			child[s.Parent] += s.Busy
			top[i] = top[s.Parent]
		}
	}
	return child, top
}

// selfTimes returns, per span name, the summed self time in seconds of the
// spans under root (root included), or of every span when root < 0. A
// span's self time is its busy time minus that of its direct children.
func (t *tracer) selfTimes(root int) map[string]float64 {
	child, top := t.childBusy()
	self := map[string]float64{}
	for i, s := range t.spans {
		if root < 0 || top[i] == root {
			self[s.Name] += float64(s.Busy-child[i]) / 1e9
		}
	}
	return self
}

// calls returns the summed call count of every span with the given name.
func (t *tracer) calls(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n += s.Calls
		}
	}
	return n
}

// rootWall is the summed duration of the root spans in seconds.
func (t *tracer) rootWall() float64 {
	var w int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			w += s.Busy
		}
	}
	return float64(w) / 1e9
}

// unattributed is the share of the traced wall time that no layer span
// covers: the self time of the root spans, which is the traced runner's
// own glue between calls into the program.
func (t *tracer) unattributed() float64 {
	child, _ := t.childBusy()
	var self int64
	for i, s := range t.spans {
		if s.Parent < 0 {
			self += s.Busy - child[i]
		}
	}
	return float64(self) / 1e9 / t.rootWall()
}

// write dumps the spans as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTable renders self time per span name, largest first, for the
// human-readable part of the output.
func (t *tracer) layerTable() string {
	st := t.selfTimes(-1)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	wall := t.rootWall()
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("  self %-22s %10.4f s  %5.1f%%\n", n, st[n], 100*st[n]/wall)
	}
	return out
}
