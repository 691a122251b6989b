package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"chipletnet/internal/jsonl"
	"chipletnet/internal/packet"
)

// traceFormat is the magic the header's "format" field must carry.
const traceFormat = "chipletnet-trace"

// header is the first line of a native trace file. Carrying the entry
// count up front is what makes truncation detectable: unlike the
// append-only JSONL stores (internal/jsonl), a trace is written whole,
// so a short file is damage, not a crash-mid-append to forgive.
type header struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Endpoints int    `json:"endpoints"`
	Entries   int    `json:"entries"`
}

// Encode writes the trace in the native format: one header line followed
// by one JSON line per entry. The output is byte-deterministic for a
// given trace.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{
		Format:    traceFormat,
		Version:   FormatVersion,
		Endpoints: t.Endpoints,
		Entries:   len(t.Entries),
	}); err != nil {
		return err
	}
	for i := range t.Entries {
		if err := enc.Encode(&t.Entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a native trace, strictly: a bad header is ErrNotTrace (or
// ErrVersion), fewer entries than the header declares is ErrTruncated —
// including a torn final line — and any interior damage or invariant
// violation is ErrCorrupt. All are typed; none panic.
func Decode(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(data, []byte("\n"))
	// Drop trailing empty fragments (the final newline splits into one).
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("%w: empty file", ErrNotTrace)
	}
	var h header
	if err := json.Unmarshal(lines[0], &h); err != nil || h.Format != traceFormat {
		return nil, fmt.Errorf("%w: bad header line", ErrNotTrace)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrVersion, h.Version, FormatVersion)
	}
	if h.Entries < 0 {
		return nil, fmt.Errorf("%w: negative entry count %d", ErrCorrupt, h.Entries)
	}
	body := lines[1:]
	if len(body) < h.Entries {
		return nil, fmt.Errorf("%w: header declares %d entries, file holds %d", ErrTruncated, h.Entries, len(body))
	}
	if len(body) > h.Entries {
		return nil, fmt.Errorf("%w: header declares %d entries, file holds %d", ErrCorrupt, h.Entries, len(body))
	}
	t := &Trace{Version: h.Version, Endpoints: h.Endpoints, Entries: make([]Entry, h.Entries)}
	for i, line := range body {
		if err := json.Unmarshal(line, &t.Entries[i]); err != nil {
			if i == len(body)-1 {
				// A torn final line is the truncation signature: the tail
				// of the last entry never made it to disk.
				return nil, fmt.Errorf("%w: torn final entry line", ErrTruncated)
			}
			return nil, fmt.Errorf("%w: entry line %d: %v", ErrCorrupt, i, err)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile writes the trace atomically (jsonl.WriteAtomic), so a crash
// mid-write never leaves a half-trace under the final name.
func WriteFile(path string, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return jsonl.WriteAtomic(path, t.Encode)
}

// ReadFile reads and validates a native trace file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// externalRecord is one line of an external dependency-annotated trace:
// full-name JSON keys, class by name, dependencies by the external id.
type externalRecord struct {
	ID    int64  `json:"id"`
	Cycle int64  `json:"cycle"`
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Flits int    `json:"flits"`
	Class string `json:"class"`
	Dep   *int64 `json:"dep"`
}

// Import loads an external dependency-annotated JSONL trace through the
// tolerant loader (internal/jsonl): unparseable or invalid lines are
// quarantined to a .rej sidecar and the load continues — external traces
// come from other tools and one bad line must not discard the rest. The
// surviving records are sorted by (cycle, file order), re-numbered
// densely, and their dependencies remapped; a dependency on a record that
// was quarantined, missing, or not strictly earlier is an error (the
// causal structure is the point of such traces, so it cannot be patched
// silently). Returns the trace and the quarantined line count.
func Import(path string, endpoints int) (*Trace, int, error) {
	if endpoints < 2 {
		return nil, 0, fmt.Errorf("workload: import needs at least 2 endpoints, got %d", endpoints)
	}
	var recs []externalRecord
	quarantined, err := jsonl.Load(path, func(line []byte) error {
		var r externalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Cycle < 0 {
			return fmt.Errorf("negative cycle %d", r.Cycle)
		}
		if r.Src < 0 || r.Src >= endpoints || r.Dst < 0 || r.Dst >= endpoints || r.Src == r.Dst {
			return fmt.Errorf("bad endpoints %d->%d", r.Src, r.Dst)
		}
		if r.Flits < 1 {
			return fmt.Errorf("no payload")
		}
		if r.Class != "" {
			if _, ok := packet.ClassByName(r.Class); !ok {
				return fmt.Errorf("unknown class %q", r.Class)
			}
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, quarantined, err
	}
	if len(recs) == 0 {
		return nil, quarantined, fmt.Errorf("workload: %s holds no importable records", path)
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return recs[order[a]].Cycle < recs[order[b]].Cycle })

	newID := make(map[int64]int64, len(recs))
	for pos, idx := range order {
		r := recs[idx]
		if _, dup := newID[r.ID]; dup {
			return nil, quarantined, fmt.Errorf("workload: %s: duplicate record id %d", path, r.ID)
		}
		newID[r.ID] = int64(pos)
	}
	t := &Trace{Version: FormatVersion, Endpoints: endpoints, Entries: make([]Entry, len(recs))}
	for pos, idx := range order {
		r := recs[idx]
		cl := packet.ClassBestEffort
		if r.Class != "" {
			cl, _ = packet.ClassByName(r.Class)
		}
		dep := packet.NoDep
		if r.Dep != nil {
			d, ok := newID[*r.Dep]
			if !ok {
				return nil, quarantined, fmt.Errorf("workload: %s: record %d depends on unknown record %d", path, r.ID, *r.Dep)
			}
			if d >= int64(pos) {
				return nil, quarantined, fmt.Errorf("workload: %s: record %d depends on record %d which is not strictly earlier", path, r.ID, *r.Dep)
			}
			dep = d
		}
		t.Entries[pos] = Entry{
			ID:    int64(pos),
			Cycle: r.Cycle,
			Src:   r.Src,
			Dst:   r.Dst,
			Flits: r.Flits,
			Msg:   uint64(pos),
			Seq:   0,
			Class: cl,
			Dep:   dep,
		}
	}
	if err := t.Validate(); err != nil {
		return nil, quarantined, err
	}
	return t, quarantined, nil
}
