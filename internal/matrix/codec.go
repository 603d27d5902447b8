package matrix

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/dag"
)

// Codec serializes cell values for the transport layer, appending to and
// consuming from byte slices. Fixed-size numeric cells use BinaryCodec;
// any other cell type (a struct of score and traceback direction, say)
// brings its own codec of a fixed width.
type Codec[T any] interface {
	// CellSize is the encoded size of one cell in bytes, the same for
	// every cell, and > 0: the block decoders refuse, before allocating
	// it, a block that claims more cells than its payload has bytes for.
	CellSize() int
	// AppendCells appends the encoding of cells to dst and returns the
	// extended slice.
	AppendCells(dst []byte, cells []T) ([]byte, error)
	// DecodeCells fills cells with len(cells) values decoded from the
	// front of src and returns what follows them.
	DecodeCells(src []byte, cells []T) (rest []byte, err error)
}

// BinaryCodec encodes fixed-size integer and float cells in little-endian
// order. On a little-endian host that is the cells' memory, which it
// copies in one piece each way (memOf, alias.go); a big-endian host then
// reverses each cell's bytes.
type BinaryCodec[T int32 | int64 | uint32 | uint64 | float32 | float64] struct{}

func (BinaryCodec[T]) CellSize() int {
	var zero T
	switch any(zero).(type) {
	case int32, uint32, float32:
		return 4
	}
	return 8
}

func (c BinaryCodec[T]) AppendCells(dst []byte, cells []T) ([]byte, error) {
	n := len(dst)
	dst = append(dst, memOf(cells)...)
	if !littleEndian {
		swapCells(dst[n:], c.CellSize())
	}
	return dst, nil
}

func (c BinaryCodec[T]) DecodeCells(src []byte, cells []T) ([]byte, error) {
	n := len(cells) * c.CellSize()
	if len(src) < n {
		return nil, fmt.Errorf("matrix: %d cells need %d bytes, %d left: %w", len(cells), n, len(src), io.ErrUnexpectedEOF)
	}
	mem := memOf(cells)
	copy(mem, src)
	if !littleEndian {
		swapCells(mem, c.CellSize())
	}
	return src[n:], nil
}

// swapCells reverses the bytes of each size-byte cell of b: a big-endian
// host's memory of the cells to their encoding, and back.
func swapCells(b []byte, size int) {
	for k := 0; k < len(b); k += size {
		slices.Reverse(b[k : k+size])
	}
}

// Block payload layout, all integers little-endian int32: a count, then
// count records. A plain record is a 16-byte rect header (Row0, Col0, Rows,
// Cols) followed by Rows×Cols cells in row-major order. The keyed variant
// is described in codec_keyed.go.
const (
	countSize  = 4
	headerSize = 16
	keySize    = 32
)

func appendInt32(dst []byte, v int) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// appendHeader appends r's rect header with rows in the Rows field (the
// keyed format negates it to mark a reference).
func appendHeader(dst []byte, r dag.Rect, rows int) []byte {
	dst = appendInt32(dst, r.Row0)
	dst = appendInt32(dst, r.Col0)
	dst = appendInt32(dst, rows)
	return appendInt32(dst, r.Cols)
}

func readInt32(src []byte) int { return int(int32(binary.LittleEndian.Uint32(src))) }

// EncodeBlocks serializes a set of blocks (count header followed by rect
// headers and cell payloads) using codec c, into one slice sized up front
// when the codec's cells have a fixed size. A single block that lives in
// its own payload (NewPayloadBlock, or decoded alone) is not encoded: that
// payload is returned.
func EncodeBlocks[T any](c Codec[T], blocks []*Block[T]) ([]byte, error) {
	if len(blocks) == 1 {
		if p, ok := ownPayload(c, blocks[0]); ok {
			return p, nil
		}
	}
	size := countSize
	for _, b := range blocks {
		size += headerSize + len(b.Cells)*c.CellSize()
	}
	dst := appendInt32(newPayload(size), len(blocks))
	for _, b := range blocks {
		var err error
		dst = appendHeader(dst, b.Rect, b.Rect.Rows)
		if dst, err = c.AppendCells(dst, b.Cells); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBlocks is the inverse of EncodeBlocks. The payload is untrusted:
// the count and every rect are checked against the bytes that remain
// before anything is allocated for them, and bytes after the last record
// are refused. Decoded cells may alias data (see alias.go), which must not
// change while they are in use.
func DecodeBlocks[T any](c Codec[T], data []byte) ([]*Block[T], error) {
	n, rest, err := readCount(data)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("matrix: negative block count %d", n)
	}
	blocks, err := decodeRecords(c, rest, n, false, nil, nil)
	if err == nil && n == 1 {
		adopt(c, blocks[0], data[:len(data):len(data)])
	}
	return blocks, err
}

// DecodeBlock decodes what a result frame, a checkpoint record or a cache
// entry carries: a payload of exactly one block, covering
// exactly the region of grid position p of g. Anything else is refused,
// before it can reach a store, whose Put panics on a foreign region.
func DecodeBlock[T any](c Codec[T], data []byte, g dag.Geometry, p dag.Pos) (*Block[T], error) {
	blocks, err := DecodeBlocks(c, data)
	if err != nil {
		return nil, err
	}
	if len(blocks) != 1 {
		return nil, fmt.Errorf("matrix: %d blocks, want 1", len(blocks))
	}
	if err := CheckRect(g, p, blocks[0].Rect); err != nil {
		return nil, err
	}
	return blocks[0], nil
}

func readCount(data []byte) (n int, rest []byte, err error) {
	if len(data) < countSize {
		return 0, nil, fmt.Errorf("matrix: %d-byte payload has no block count: %w", len(data), io.ErrUnexpectedEOF)
	}
	return readInt32(data), data[countSize:], nil
}

// decodeRecords decodes the count records in rest, keyed or plain. Only a
// keyed payload reads keys, resolves references (a negative Rows field)
// and reports full blocks through record.
func decodeRecords[T any](c Codec[T], rest []byte, count int, keyed bool, resolve func(BlockRef) (*Block[T], bool), record func([32]byte, *Block[T])) ([]*Block[T], error) {
	recSize := headerSize
	if keyed {
		recSize += keySize
	}
	if count > len(rest)/recSize {
		return nil, fmt.Errorf("matrix: payload claims %d blocks, %d bytes hold at most %d", count, len(rest), len(rest)/recSize)
	}
	cellSize := max(c.CellSize(), 1) // a custom codec is untrusted too
	blocks := make([]*Block[T], 0, count)
	decoded := make([]Block[T], count) // one allocation for every record's block
	for k := 0; k < count; k++ {
		if len(rest) < recSize {
			return nil, fmt.Errorf("matrix: payload ends inside block header %d of %d: %w", k, count, io.ErrUnexpectedEOF)
		}
		rect := dag.Rect{Row0: readInt32(rest), Col0: readInt32(rest[4:]), Rows: readInt32(rest[8:]), Cols: readInt32(rest[12:])}
		var key [32]byte
		if keyed {
			copy(key[:], rest[headerSize:])
		}
		rest = rest[recSize:]
		if keyed && rect.Rows < 0 {
			rect.Rows = -rect.Rows
			b, err := resolveRef(rect, key, resolve)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
			continue
		}
		if rect.Rows <= 0 || rect.Cols <= 0 {
			return nil, fmt.Errorf("matrix: invalid block header %+v", rect)
		}
		// Rows and Cols are below 2³¹, so the product fits an int64.
		if cells := int64(rect.Rows) * int64(rect.Cols); cells > int64(len(rest)/cellSize) {
			return nil, fmt.Errorf("matrix: block %+v claims %d cells, %d bytes left: %w", rect, cells, len(rest), io.ErrUnexpectedEOF)
		}
		b := &decoded[k]
		b.Rect = rect
		var err error
		if b.Cells, rest, err = decodeCells(c, rest, rect.Cells()); err != nil {
			return nil, err
		}
		if keyed && record != nil {
			record(key, b)
		}
		blocks = append(blocks, b)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("matrix: %d trailing bytes after %d blocks", len(rest), count)
	}
	return blocks, nil
}

// decodeCells reads n cells from the front of src: in place where the codec
// and src's alignment allow it (cellsIn), into a fresh slice otherwise.
func decodeCells[T any](c Codec[T], src []byte, n int) ([]T, []byte, error) {
	if cells, ok := cellsIn(c, src, n); ok {
		return cells, src[n*c.CellSize():], nil
	}
	cells := make([]T, n)
	rest, err := c.DecodeCells(src, cells)
	return cells, rest, err
}
