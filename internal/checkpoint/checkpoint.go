// Package checkpoint provides versioned, self-describing binary snapshots
// of complete simulator state, with the guarantee that a run restored from
// a snapshot taken at cycle k finishes bit-identical to the uninterrupted
// run.
//
// File layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "CHPLCKPT"
//	8       4     format version (uint32)
//	12      8     payload length (uint64)
//	20      n     payload: gob-encoded State
//	20+n    4     CRC-32 (IEEE) of the payload
//
// The header is validated before the payload is decoded, so a truncated,
// corrupted, or version-skewed file is rejected with a typed error
// (ErrNotCheckpoint, ErrVersion, ErrCorrupt) and never a panic. Writes go
// through a temporary file in the destination directory followed by an
// atomic rename, so a crash mid-write never leaves a half-written
// checkpoint under the target name.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"chipletnet/internal/jsonl"
)

// Version is the current checkpoint format version. It changes whenever
// the State schema changes incompatibly; there is no cross-version
// migration — a version-skewed file is rejected with ErrVersion and the
// run must be redone from the start (checkpoints are derived artifacts,
// never the only copy of anything).
const Version uint32 = 1

// magic identifies a chiplet-simulator checkpoint file.
var magic = [8]byte{'C', 'H', 'P', 'L', 'C', 'K', 'P', 'T'}

// Typed sentinel errors, matchable with errors.Is.
var (
	// ErrNotCheckpoint: the file does not begin with the checkpoint magic.
	ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint file")
	// ErrVersion: the file is a checkpoint, but of an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrCorrupt: the file is damaged — truncated, failing its CRC, or
	// undecodable.
	ErrCorrupt = errors.New("checkpoint: corrupt file")
	// ErrMismatch: the snapshot decoded but does not fit the system being
	// restored (e.g. it references structure the rebuilt topology lacks).
	ErrMismatch = errors.New("checkpoint: snapshot does not match configuration")
)

// Encode serializes st into the checkpoint wire format.
func Encode(st *State) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, 0, 20+payload.Len()+4)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload.Bytes()))
	return buf, nil
}

// Decode parses checkpoint wire bytes, validating magic, version, length,
// and CRC before touching the payload.
func Decode(data []byte) (*State, error) {
	if len(data) < 20 || !bytes.Equal(data[:8], magic[:]) {
		return nil, ErrNotCheckpoint
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, supported version %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	if n > uint64(len(data)) || uint64(len(data))-n < 24 {
		return nil, fmt.Errorf("%w: truncated (payload length %d, file length %d)",
			ErrCorrupt, n, len(data))
	}
	payload := data[20 : 20+n]
	want := binary.LittleEndian.Uint32(data[20+n : 24+n])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	st := new(State)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: payload decode: %v", ErrCorrupt, err)
	}
	return st, nil
}

// WriteFile atomically writes st as a checkpoint file at path
// (jsonl.WriteAtomic: temp file, sync, rename, directory sync), so
// readers see either the old checkpoint or the complete new one, never a
// partial write.
func WriteFile(path string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	err = jsonl.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadFile loads and validates a checkpoint file.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
