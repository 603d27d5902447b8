package matrix

import (
	"bytes"
	"encoding/binary"
	"unsafe"

	"repro/internal/dag"
)

// On a little-endian host a BinaryCodec block's cells are, byte for byte,
// their wire encoding. This file, the package's one use of unsafe, makes
// the payload path use that: a decoded record's cells alias the payload
// they arrived in, and NewPayloadBlock's cells are the payload they ship
// as. Every conversion is checked by checkptr under go test -race.
//
// The rule that makes it sound: a payload, and every block decoded from it
// or living in it once it has shipped, is read-only. A decoded block keeps
// its payload alive. Any other codec, a misaligned record or a big-endian
// host decodes into a fresh slice, as before.

// leadPad is allocated ahead of every payload this package writes, so that
// the payload starts 4 bytes past an 8-byte boundary. After the 4-byte
// count, the first record's cells then start 8-byte aligned — behind a
// 16-byte header, or 48 bytes of header and key — and so do every later
// record's when cells are 8 bytes wide.
const leadPad = 4

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// inPlaceCodec is implemented by BinaryCodec alone: little-endian fixed-size
// numbers, each the memory of its Go value on a little-endian host. It is
// an interface, not a type switch over BinaryCodec's six instantiations:
// naming them here made go1.24 compile their codec loops with putU32 and
// getU32 as calls, at half the speed.
type inPlaceCodec interface{ inPlace() }

func (BinaryCodec[T]) inPlace() {}

// inPlaceSize is the cell size of codec c when its encoding of a []T is the
// memory of that []T, and 0 when it is not.
func inPlaceSize[T any](c Codec[T]) int {
	if _, ok := c.(inPlaceCodec); !ok || !littleEndian {
		return 0
	}
	return c.CellSize()
}

// newPayload returns an empty payload of capacity size, leadPad bytes into
// an 8-byte-aligned allocation.
func newPayload(size int) []byte {
	words := make([]uint64, (leadPad+size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)
	return buf[leadPad : leadPad : leadPad+size]
}

// cellsIn returns the first n cells of src as a []T over src's own bytes,
// its capacity n so that an append cannot reach the next record, when
// codec c encodes in place and src holds n cells aligned for T; ok is
// false otherwise.
func cellsIn[T any](c Codec[T], src []byte, n int) (cells []T, ok bool) {
	var zero T
	size, p := inPlaceSize(c), unsafe.Pointer(unsafe.SliceData(src))
	if size == 0 || n*size > len(src) || uintptr(p)%unsafe.Alignof(zero) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), n), true
}

// NewPayloadBlock allocates a zeroed block covering r, to be shipped with
// codec c. Where c encodes in place, the block lives inside its own
// one-block payload (count, rect header, cells) and its Cells are the
// payload's cell bytes: what is written to them is what EncodeBlocks of
// the block returns, with no encode pass. Otherwise it is NewBlock.
func NewPayloadBlock[T any](c Codec[T], r dag.Rect) *Block[T] {
	if size := inPlaceSize(c); size > 0 {
		n := r.Cells()
		p := appendHeader(appendInt32(newPayload(countSize+headerSize+n*size), 1), r, r.Rows)
		if cells, ok := cellsIn(c, p[len(p):cap(p)], n); ok {
			return &Block[T]{Rect: r, Cells: cells, payload: p[:cap(p)]}
		}
	}
	return NewBlock[T](r)
}

// ownPayload returns b's payload when it is exactly what encoding b alone
// with c would write: c encodes in place, b's Cells are still the
// payload's cell bytes, and the payload's count and header still say one
// block of b.Rect.
func ownPayload[T any](c Codec[T], b *Block[T]) ([]byte, bool) {
	const at = countSize + headerSize
	p, size := b.payload, inPlaceSize(c)
	if size == 0 || len(p) != at+len(b.Cells)*size ||
		unsafe.Pointer(unsafe.SliceData(b.Cells)) != unsafe.Pointer(unsafe.SliceData(p[at:])) {
		return nil, false
	}
	var h [at]byte
	if !bytes.Equal(p[:at], appendHeader(appendInt32(h[:0], 1), b.Rect, b.Rect.Rows)) {
		return nil, false
	}
	return p, true
}

// adopt makes p, a one-block payload that decoded to b, b's own payload
// when b's cells live in it.
func adopt[T any](c Codec[T], b *Block[T], p []byte) {
	b.payload = p
	if _, ok := ownPayload(c, b); !ok {
		b.payload = nil
	}
}
