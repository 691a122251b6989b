// Package jsonl owns every durable file the repository writes. It holds
// the append-only JSONL stores — the DSE evaluation cache shards
// (internal/dse), the daemon job journal jobs.jsonl (internal/service),
// the coordinator lease journal coord.jsonl (internal/service/coord) and
// the chipletfig campaign journal (internal/experiments) — as Log values,
// and it is the one atomic file writer (WriteAtomic) behind checkpoints
// (internal/checkpoint), trace files (internal/workload), store repair and
// lease-journal compaction. No other package opens files for append or
// renames them; cmd/chipletlint's durablefile rule enforces that. The
// external-trace importer (workload.Import) reads through Load as well.
//
// All stores follow the same crash-safety idiom — append one line, fsync,
// return — so they share one damage model and one repair:
//
//   - A final line without a trailing newline is the signature of a crash
//     mid-append. The entry was never acknowledged, so it is dropped.
//   - Any other unparseable line is real corruption (bit rot, a partial
//     write glued onto a later append, an editor accident). Instead of
//     refusing the whole file — or worse, silently losing every valid
//     entry after the first bad line — the bad lines are quarantined to a
//     `<file>.rej` sidecar and loading continues with the later entries.
//
// After quarantine the store file is rewritten atomically (WriteAtomic)
// containing only the valid lines, so appends resume on a clean file and
// a re-open quarantines nothing.
package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Log is an open append-only JSONL store of T values: one json.Marshal
// encoding per line. It is safe for concurrent use; each Append lands as
// one whole line.
type Log[T any] struct {
	mu   sync.Mutex
	path string
	f    *os.File // nil once closed
}

// Open loads the store at path as Load does — healing crash and
// corruption damage in place — with each line decoded into a T before
// accept sees it, then opens the file for appending (creating it if
// needed). It returns the log and the number of quarantined lines.
func Open[T any](path string, accept func(T) error) (*Log[T], int, error) {
	quarantined, err := Load(path, func(line []byte) error {
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		return accept(v)
	})
	if err != nil {
		return nil, quarantined, err
	}
	f, err := openAppend(path)
	if err != nil {
		return nil, quarantined, err
	}
	return &Log[T]{path: path, f: f}, quarantined, nil
}

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Append writes v as one line and fsyncs it before returning, so a crash
// immediately after cannot lose an acknowledged entry. The encoding
// happens before the lock; the write and the fsync happen under it.
func (l *Log[T]) Append(v T) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("jsonl: append to %s: %w", l.path, os.ErrClosed)
	}
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	return l.f.Sync()
}

// Compact atomically replaces the store's contents with vs and reopens
// the append handle on the new file. A crash mid-compaction leaves either
// the old file or the new one, never a mix. If the handle cannot be
// reopened the log closes itself, so later Appends fail instead of
// writing to the replaced (unlinked) file.
func (l *Log[T]) Compact(vs []T) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("jsonl: compact %s: %w", l.path, os.ErrClosed)
	}
	werr := WriteAtomic(l.path, func(w io.Writer) error {
		enc := json.NewEncoder(w) // Encode writes json.Marshal's bytes + '\n'
		for _, v := range vs {
			if err := enc.Encode(v); err != nil {
				return err
			}
		}
		return nil
	})
	// Reopen even when WriteAtomic failed: its error may come after the
	// rename (the directory fsync), and the old handle must not outlive
	// the file it points to.
	f, err := openAppend(l.path)
	l.f.Close()
	l.f = f
	return errors.Join(werr, err)
}

// Close closes the append handle. Closing a closed log is a no-op.
func (l *Log[T]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// WriteAtomic replaces path with the bytes write produces: they go to a
// temp file in the same directory, are synced, and the temp file is
// renamed over path; the directory is then synced so the new name itself
// survives a power loss. Readers see the old file or the complete new
// one, never a partial write. If write fails, path is left untouched and
// the temp file is removed.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	return errors.Join(err, d.Close())
}

// Load reads the append-only JSONL file at path and feeds every non-empty
// line to accept in file order. Lines accept rejects are quarantined to
// path+".rej"; a torn final line (crash mid-append) is dropped silently.
// If anything was dropped or quarantined, the file is rewritten in place
// (atomically) with only the accepted lines. A missing file loads as
// empty. The returned count is the number of quarantined lines.
func Load(path string, accept func(line []byte) error) (quarantined int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	if len(data) == 0 {
		return 0, nil
	}
	// A file not ending in '\n' lost the tail of its final append; the
	// entry was never acknowledged to its writer, so dropping it is not
	// data loss. The split below leaves the torn fragment as the last
	// element; cutting it here keeps it out of both the load and the
	// quarantine sidecar.
	torn := data[len(data)-1] != '\n'
	lines := bytes.Split(data, []byte("\n"))
	if torn {
		lines = lines[:len(lines)-1]
	}

	var valid, bad [][]byte
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if accept(line) != nil {
			bad = append(bad, line)
			continue
		}
		valid = append(valid, line)
	}
	quarantined = len(bad)
	if quarantined > 0 {
		if err := quarantine(path+".rej", bad); err != nil {
			return quarantined, fmt.Errorf("jsonl: quarantining %d corrupt lines of %s: %w", quarantined, path, err)
		}
	}
	if quarantined > 0 || torn {
		err := WriteAtomic(path, func(w io.Writer) error {
			for _, line := range valid {
				if _, err := w.Write(append(line, '\n')); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return quarantined, fmt.Errorf("jsonl: repairing %s: %w", path, err)
		}
	}
	return quarantined, nil
}

// quarantine appends lines to the .rej sidecar at path, skipping lines
// the sidecar already holds byte-for-byte. Quarantine must be idempotent:
// a crash between sidecar append and store repair — or any other reason
// the same corrupt lines are loaded twice — must not duplicate sidecar
// entries, or the evidence file grows without bound and "how much is
// damaged" becomes unanswerable.
func quarantine(path string, lines [][]byte) error {
	seen := map[string]bool{}
	if prev, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(prev, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				seen[string(line)] = true
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var fresh [][]byte
	for _, line := range lines {
		if seen[string(line)] {
			continue
		}
		seen[string(line)] = true // dedupe within the batch too
		fresh = append(fresh, line)
	}
	if len(fresh) == 0 {
		return nil
	}
	f, err := openAppend(path)
	if err != nil {
		return err
	}
	for _, line := range fresh {
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
