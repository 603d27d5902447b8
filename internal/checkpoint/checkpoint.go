// Package checkpoint persists completed sub-task results so that an
// interrupted run can resume without recomputing them — the natural
// extension of the paper's fault-tolerance story from lost sub-tasks to a
// lost master.
//
// The format is a sequence of self-delimiting records, each protected by
// a CRC32 so that a torn final record (the typical crash artifact) is
// detected and ignored:
//
//	[magic u32][vertex int32][len u32][payload ...][crc32 u32]
//
// Because the master appends records in completion order and a vertex only
// completes after its precursors, any prefix of a checkpoint file is
// closed under the DAG's ancestor relation: replaying records in file
// order is always a valid (partial) execution.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const magic uint32 = 0xea57095c

// maxRecord bounds a record payload (64 MiB) so a corrupt length field
// cannot trigger a huge allocation.
const maxRecord = 64 << 20

// Writer appends checkpoint records. It is safe for concurrent use.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewWriter creates a checkpoint writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append persists one completed vertex with its encoded result block.
// After the first error every Append returns it without writing further.
func (cw *Writer) Append(vertex int32, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return cw.err
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("checkpoint: payload of vertex %d exceeds %d bytes", vertex, maxRecord)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(vertex))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())

	for _, chunk := range [][]byte{hdr[:], payload, tail[:]} {
		if _, err := cw.w.Write(chunk); err != nil {
			cw.err = fmt.Errorf("checkpoint: writing the record of vertex %d: %w", vertex, err)
			return cw.err
		}
	}
	return nil
}

// ErrCorrupt marks a record that failed its integrity checks; Replay stops
// there silently, treating the rest of the file as lost.
var ErrCorrupt = errors.New("checkpoint: corrupt record")

// Replay reads records in order, invoking fn for each intact one. It
// returns the number of replayed records. A clean EOF, a torn tail or a
// corrupt record all terminate the replay without error — resuming from a
// prefix is always safe; only fn's own errors propagate.
func Replay(r io.Reader, fn func(vertex int32, payload []byte) error) (int, error) {
	n, _, err := ReplayOffset(r, fn)
	return n, err
}

// ReplayOffset is Replay reporting, additionally, the byte offset of the
// end of the last intact record — the clean prefix length. A writer that
// wants to continue an interrupted stream in place must truncate the file
// there first: appending after a torn tail would leave the new records
// unreachable (every replay stops at the first corrupt record).
func ReplayOffset(r io.Reader, fn func(vertex int32, payload []byte) error) (int, int64, error) {
	n, off := 0, int64(0)
	for {
		vertex, payload, err := readRecord(r)
		if err != nil {
			return n, off, nil // EOF, torn tail, or corruption: stop here
		}
		if err := fn(vertex, payload); err != nil {
			return n, off, err
		}
		n++
		off += int64(12 + len(payload) + 4)
	}
}

// OpenAppend resumes the checkpoint stream at path for a restarted
// master: it replays the intact prefix through fn, truncates any torn or
// corrupt tail (the typical crash artifact), and returns a Writer that
// appends new records after the clean prefix. A missing file starts an
// empty stream. The caller owns closing the file.
func OpenAppend(path string, fn func(vertex int32, payload []byte) error) (*Writer, *os.File, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("checkpoint: opening %s: %w", path, err)
	}
	n, clean, err := ReplayOffset(f, fn)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if err := f.Truncate(clean); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("checkpoint: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(clean, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return NewWriter(f), f, n, nil
}

func readRecord(r io.Reader) (int32, []byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return 0, nil, ErrCorrupt
	}
	vertex := int32(binary.LittleEndian.Uint32(hdr[4:]))
	size := binary.LittleEndian.Uint32(hdr[8:])
	if size > maxRecord {
		return 0, nil, ErrCorrupt
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, err
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(tail[:]) {
		return 0, nil, ErrCorrupt
	}
	return vertex, payload, nil
}
