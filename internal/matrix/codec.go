package matrix

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/dag"
)

// Codec serializes cell values for the transport layer, appending to and
// consuming from byte slices. Fixed-size numeric cells use BinaryCodec;
// any other cell type can fall back to GobCodec, or bring its own codec.
type Codec[T any] interface {
	// CellSize is the encoded size of one cell in bytes when every cell
	// encodes to the same size, and 0 when the size varies. A
	// variable-size codec still spends at least one byte per cell: the
	// block decoders refuse, before allocating it, a block that claims
	// more cells than its payload has bytes left.
	CellSize() int
	// AppendCells appends the encoding of cells to dst and returns the
	// extended slice.
	AppendCells(dst []byte, cells []T) ([]byte, error)
	// DecodeCells fills cells with len(cells) values decoded from the
	// front of src and returns what follows them.
	DecodeCells(src []byte, cells []T) (rest []byte, err error)
}

// BinaryCodec encodes fixed-size integer and float cells in little-endian
// order.
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
	n := len(cells) * c.CellSize()
	dst = slices.Grow(dst, n)[:len(dst)+n]
	out := dst[len(dst)-n:]
	switch cells := any(cells).(type) {
	case []int32:
		put32(out, cells)
	case []uint32:
		put32(out, cells)
	case []int64:
		put64(out, cells)
	case []uint64:
		put64(out, cells)
	case []float32:
		for _, v := range cells {
			putU32(out, math.Float32bits(v))
			out = out[4:]
		}
	case []float64:
		for _, v := range cells {
			putU64(out, math.Float64bits(v))
			out = out[8:]
		}
	}
	return dst, nil
}

func (c BinaryCodec[T]) DecodeCells(src []byte, cells []T) ([]byte, error) {
	n := len(cells) * c.CellSize()
	if len(src) < n {
		return nil, fmt.Errorf("matrix: %d cells need %d bytes, %d left: %w", len(cells), n, len(src), io.ErrUnexpectedEOF)
	}
	in := src[:n]
	switch cells := any(cells).(type) {
	case []int32:
		get32(cells, in)
	case []uint32:
		get32(cells, in)
	case []int64:
		get64(cells, in)
	case []uint64:
		get64(cells, in)
	case []float32:
		for i := range cells {
			cells[i] = math.Float32frombits(getU32(in))
			in = in[4:]
		}
	case []float64:
		for i := range cells {
			cells[i] = math.Float64frombits(getU64(in))
			in = in[8:]
		}
	}
	return src[n:], nil
}

// Little-endian loads and stores, written out. The encoding/binary ones are
// methods, and go1.24 does not inline them into a generic function
// instantiated from another package — which is where every caller
// instantiates these loops: a call per cell, 1.1 GB/s where this reads 2.7.

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put32[T int32 | uint32](out []byte, cells []T) {
	for _, v := range cells {
		putU32(out, uint32(v))
		out = out[4:]
	}
}

func put64[T int64 | uint64](out []byte, cells []T) {
	for _, v := range cells {
		putU64(out, uint64(v))
		out = out[8:]
	}
}

func get32[T int32 | uint32](cells []T, in []byte) {
	for i := range cells {
		cells[i] = T(getU32(in))
		in = in[4:]
	}
}

func get64[T int64 | uint64](cells []T, in []byte) {
	for i := range cells {
		cells[i] = T(getU64(in))
		in = in[8:]
	}
}

// GobCodec encodes arbitrary cell types with encoding/gob, one
// self-delimiting gob stream per block. Slower than BinaryCodec but works
// for struct cells (e.g. score plus traceback direction).
type GobCodec[T any] struct{}

func (GobCodec[T]) CellSize() int { return 0 }

func (GobCodec[T]) AppendCells(dst []byte, cells []T) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(cells); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (GobCodec[T]) DecodeCells(src []byte, cells []T) ([]byte, error) {
	// A bytes.Reader is an io.ByteReader, so the decoder reads exactly its
	// stream and leaves the reader at the next record.
	r := bytes.NewReader(src)
	var tmp []T
	if err := gob.NewDecoder(r).Decode(&tmp); err != nil {
		return nil, err
	}
	if len(tmp) != len(cells) {
		return nil, fmt.Errorf("matrix: gob payload has %d cells, want %d", len(tmp), len(cells))
	}
	copy(cells, tmp)
	return src[len(src)-r.Len():], nil
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

func readInt32(src []byte) int { return int(int32(getU32(src))) }

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
	cellSize := max(c.CellSize(), 1)
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
