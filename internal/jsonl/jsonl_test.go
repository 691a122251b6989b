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
	"testing"
)

type entry struct {
	K string
	V int
}

// loadEntries runs Load with a JSON-into-entry acceptor requiring a
// non-empty key, returning the accepted entries in order.
func loadEntries(t *testing.T, path string) ([]entry, int) {
	t.Helper()
	var out []entry
	q, err := Load(path, func(line []byte) error {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.K == "" {
			return os.ErrInvalid
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, q
}

func write(t *testing.T, path string, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	got, q := loadEntries(t, filepath.Join(t.TempDir(), "absent.jsonl"))
	if len(got) != 0 || q != 0 {
		t.Errorf("missing file loaded %d entries, %d quarantined", len(got), q)
	}
}

// TestLoadCorruptionMatrix walks every damage class in one file: clean
// lines, interior garbage, a structurally-valid-but-rejected line, blank
// lines, and a torn tail. Valid entries after the corruption must
// survive; the bad lines land in the sidecar; the repaired file reloads
// with zero further quarantine.
func TestLoadCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	write(t, path,
		`{"K":"a","V":1}`+"\n"+
			"!!not json!!\n"+
			`{"K":"b","V":2}`+"\n"+
			"\n"+
			`{"V":3}`+"\n"+ // parses but fails validation (no key)
			`{"K":"c","V":4}`+"\n"+
			`{"K":"d","V":5`) // torn tail: crash mid-append

	got, q := loadEntries(t, path)
	want := []entry{{"a", 1}, {"b", 2}, {"c", 4}}
	if len(got) != len(want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if q != 2 {
		t.Errorf("quarantined %d lines, want 2 (garbage + keyless)", q)
	}

	// The quarantine sidecar holds exactly the two corrupt lines; the
	// torn tail is dropped, not quarantined.
	rej, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatal(err)
	}
	if want := "!!not json!!\n" + `{"V":3}` + "\n"; string(rej) != want {
		t.Errorf("sidecar = %q, want %q", rej, want)
	}

	// The store file was repaired in place: only valid lines remain.
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(clean, []byte("not json")) || clean[len(clean)-1] != '\n' {
		t.Errorf("repaired file still damaged: %q", clean)
	}

	// Idempotence: a second load quarantines nothing and sees the same
	// entries.
	again, q2 := loadEntries(t, path)
	if q2 != 0 {
		t.Errorf("reload quarantined %d lines, want 0", q2)
	}
	if len(again) != len(want) {
		t.Errorf("reload got %d entries, want %d", len(again), len(want))
	}

	// Sidecar idempotence: the same corrupt lines loaded again — e.g. a
	// crash between the sidecar append and the in-place repair left the
	// store file damaged — must not duplicate the sidecar entries.
	appendRaw(t, path, "!!not json!!\n"+`{"V":3}`+"\n"+`{"K":"e","V":6}`+"\n")
	redo, q3 := loadEntries(t, path)
	if q3 != 2 {
		t.Errorf("re-corrupted load quarantined %d lines, want 2", q3)
	}
	if len(redo) != len(want)+1 {
		t.Errorf("re-corrupted load got %d entries, want %d", len(redo), len(want)+1)
	}
	rej2, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rej2, rej) {
		t.Errorf("sidecar grew on repeated identical corruption:\n before %q\n after  %q", rej, rej2)
	}

	// A genuinely new corrupt line still lands in the sidecar.
	appendRaw(t, path, "!!different garbage!!\n")
	if _, q4 := loadEntries(t, path); q4 != 1 {
		t.Errorf("novel corruption quarantined %d lines, want 1", q4)
	}
	rej3, err := os.ReadFile(path + ".rej")
	if err != nil {
		t.Fatal(err)
	}
	if want := string(rej) + "!!different garbage!!\n"; string(rej3) != want {
		t.Errorf("sidecar after novel corruption = %q, want %q", rej3, want)
	}
}

func appendRaw(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTornTailOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	write(t, path, `{"K":"a","V":1}`+"\n"+`{"K":"b"`)

	got, q := loadEntries(t, path)
	if len(got) != 1 || got[0].K != "a" || q != 0 {
		t.Errorf("got %v (quarantined %d), want just entry a with 0 quarantined", got, q)
	}
	if _, err := os.Stat(path + ".rej"); !os.IsNotExist(err) {
		t.Error("torn tail must not create a quarantine sidecar")
	}
	// Repair truncated the torn fragment so appends start clean.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"K":"a","V":1}`+"\n" {
		t.Errorf("repaired file = %q", data)
	}
}

func TestLoadCleanFileUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	content := `{"K":"a","V":1}` + "\n" + `{"K":"b","V":2}` + "\n"
	write(t, path, content)
	before, _ := os.Stat(path)

	got, q := loadEntries(t, path)
	if len(got) != 2 || q != 0 {
		t.Fatalf("got %d entries, %d quarantined", len(got), q)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.ModTime() != after.ModTime() || before.Size() != after.Size() {
		t.Error("clean file was rewritten; repair must only touch damaged files")
	}
}

// openEntries opens the Log at path, returning it with the entries it
// loaded and the quarantine count.
func openEntries(t *testing.T, path string) (*Log[entry], []entry, int) {
	t.Helper()
	var got []entry
	l, q, err := Open(path, func(e entry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, q
}

func appendAll(t *testing.T, l *Log[entry], es ...entry) {
	t.Helper()
	for _, e := range es {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
}

// marshalLines is the on-disk form of es: json.Marshal(e)+"\n" each.
func marshalLines(t *testing.T, es ...entry) string {
	t.Helper()
	var b bytes.Buffer
	for _, e := range es {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	return b.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertNoTemp fails if a WriteAtomic temp file survived in dir.
func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// TestLogRoundTrip: Append → Close → Open returns the entries in order,
// and the file holds exactly json.Marshal(v)+"\n" per entry — the byte
// format every store wrote before it became a Log.
func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	l, got, q := openEntries(t, path)
	if len(got) != 0 || q != 0 {
		t.Fatalf("fresh log loaded %v, quarantined %d", got, q)
	}
	want := []entry{{"a", 1}, {"<b&c>", 2}, {"a", 3}}
	appendAll(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if data := readFile(t, path); data != marshalLines(t, want...) {
		t.Errorf("file = %q, want %q", data, marshalLines(t, want...))
	}
	l, got, q = openEntries(t, path)
	defer l.Close()
	if fmt.Sprint(got) != fmt.Sprint(want) || q != 0 {
		t.Errorf("reopened %v (quarantined %d), want %v", got, q, want)
	}
}

// TestLogTornTailDroppedOnReopen: a crash mid-append after acknowledged
// Appends leaves a torn fragment; the reopen drops it, and later Appends
// start on a clean line.
func TestLogTornTailDroppedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	l, _, _ := openEntries(t, path)
	appendAll(t, l, entry{"a", 1})
	l.Close()
	appendRaw(t, path, `{"K":"b","V`)

	l, got, q := openEntries(t, path)
	if len(got) != 1 || got[0].K != "a" || q != 0 {
		t.Errorf("reopened %v (quarantined %d), want just a", got, q)
	}
	appendAll(t, l, entry{"c", 3})
	l.Close()
	if data, want := readFile(t, path), marshalLines(t, entry{"a", 1}, entry{"c", 3}); data != want {
		t.Errorf("file = %q, want %q", data, want)
	}
}

// TestLogCompact: after Compact the file holds exactly the compacted
// entries, and later Appends land in the compacted file (not in the
// replaced inode the old handle pointed to).
func TestLogCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	l, _, _ := openEntries(t, path)
	appendAll(t, l, entry{"a", 1}, entry{"b", 2}, entry{"a", 3})
	if err := l.Compact([]entry{{"a", 3}, {"b", 2}}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entry{"c", 4})
	l.Close()
	want := []entry{{"a", 3}, {"b", 2}, {"c", 4}}
	if data := readFile(t, path); data != marshalLines(t, want...) {
		t.Errorf("file = %q, want %q", data, marshalLines(t, want...))
	}
	assertNoTemp(t, dir)
}

// TestLogClosed: Append and Compact after Close return an error instead
// of writing anywhere; a second Close is a no-op.
func TestLogClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	l, _, _ := openEntries(t, path)
	appendAll(t, l, entry{"a", 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry{"b", 2}); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Append after Close = %v, want os.ErrClosed", err)
	}
	if err := l.Compact(nil); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Compact after Close = %v, want os.ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if data, want := readFile(t, path), marshalLines(t, entry{"a", 1}); data != want {
		t.Errorf("file = %q, want %q", data, want)
	}
}

// TestLogConcurrentAppend: concurrent Appends (run under -race by make
// test-daemon) each land as one intact line.
func TestLogConcurrentAppend(t *testing.T) {
	const writers, each = 8, 16
	path := filepath.Join(t.TempDir(), "store.jsonl")
	l, _, _ := openEntries(t, path)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(entry{fmt.Sprintf("w%d-%d", w, i), i}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()

	l, got, q := openEntries(t, path)
	defer l.Close()
	seen := map[string]bool{}
	for _, e := range got {
		seen[e.K] = true
	}
	if len(got) != writers*each || len(seen) != writers*each || q != 0 {
		t.Errorf("reloaded %d entries (%d distinct, %d quarantined), want %d intact", len(got), len(seen), q, writers*each)
	}
}

// TestWriteAtomicFailingWriter: a writer error leaves the target exactly
// as it was (or absent) and no temp file behind; a successful write
// replaces it.
func TestWriteAtomicFailingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	write(t, path, "old\n")
	boom := errors.New("boom")
	failing := func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial new"); err != nil {
			return err
		}
		return boom
	}
	if err := WriteAtomic(path, failing); !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic = %v, want the writer's error", err)
	}
	if data := readFile(t, path); data != "old\n" {
		t.Errorf("target = %q after a failed write, want untouched", data)
	}
	absent := filepath.Join(dir, "absent")
	if err := WriteAtomic(absent, failing); !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic = %v, want the writer's error", err)
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Errorf("failed write created the target: %v", err)
	}
	assertNoTemp(t, dir)

	err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if data := readFile(t, path); data != "new\n" {
		t.Errorf("target = %q, want replaced", data)
	}
	assertNoTemp(t, dir)
}
