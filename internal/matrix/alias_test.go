package matrix

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dag"
)

var aliasRect = dag.Rect{Row0: 4, Col0: 2, Rows: 3, Cols: 5}

func filledBlock[T any](b *Block[T], cell func(k int) T) *Block[T] {
	for k := range b.Cells {
		b.Cells[k] = cell(k)
	}
	return b
}

// placed copies data to a buffer where it starts k bytes past where an
// encoder's payload starts, so its first record's cells sit k bytes past
// an 8-byte boundary.
func placed(data []byte, k int) []byte {
	buf := newPayload(len(data) + 8)[:k+len(data)]
	copy(buf[k:], data)
	return buf[k:]
}

// aliases reports whether b's first cell shows a write to data[off], the
// payload byte that encodes it; the byte is put back.
func aliases[T comparable](b *Block[T], data []byte, off int) bool {
	before := b.Cells[0]
	data[off] ^= 0xff
	changed := b.Cells[0] != before
	data[off] ^= 0xff
	return changed
}

// checkAliasing decodes a one-block payload placed at each of the eight
// offsets modulo 8: the cells alias the payload exactly where they are
// aligned for T, and decode to the same values either way.
func checkAliasing[T comparable](t *testing.T, c Codec[T], cell func(k int) T) {
	t.Helper()
	want := filledBlock(NewBlock[T](aliasRect), cell)
	data, err := EncodeBlocks(c, []*Block[T]{want})
	if err != nil {
		t.Fatal(err)
	}
	align := reflect.TypeFor[T]().Align()
	for k := 0; k < 8; k++ {
		moved := placed(data, k)
		got, err := DecodeBlocks(c, moved)
		if err != nil || len(got) != 1 || got[0].Rect != want.Rect || !slices.Equal(got[0].Cells, want.Cells) {
			t.Fatalf("%T at offset %d: decoded %v, %v", c, k, got, err)
		}
		wantAlias := littleEndian && k%align == 0
		if a := aliases(got[0], moved, countSize+headerSize); a != wantAlias {
			t.Errorf("%T at offset %d: cells alias the payload %v, want %v", c, k, a, wantAlias)
		}
		if cap(got[0].Cells) != len(got[0].Cells) {
			t.Errorf("%T at offset %d: cells len %d cap %d", c, k, len(got[0].Cells), cap(got[0].Cells))
		}
	}
}

func TestDecodeAliasesAlignedCells(t *testing.T) {
	checkAliasing[int32](t, BinaryCodec[int32]{}, func(k int) int32 { return int32(pinnedBits(k)) })
	checkAliasing[int64](t, BinaryCodec[int64]{}, func(k int) int64 { return int64(pinnedBits(k)) })
	checkAliasing[float64](t, BinaryCodec[float64]{}, func(k int) float64 { return float64(k) + 0.5 })
}

// GobCodec cells are never the payload's bytes: clobbering the payload
// after the decode leaves them as they were.
func TestGobDecodeCopies(t *testing.T) {
	c := GobCodec[pinnedCell]{}
	want := filledBlock(NewBlock[pinnedCell](aliasRect), func(k int) pinnedCell { return pinnedCell{Score: int32(k), Dir: 1} })
	data, err := EncodeBlocks(c, []*Block[pinnedCell]{want})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlocks(c, data)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if !slices.Equal(got[0].Cells, want.Cells) {
		t.Fatal("gob-decoded cells changed with the payload")
	}
	if b := NewPayloadBlock(c, aliasRect); b.payload != nil {
		t.Fatal("NewPayloadBlock put gob cells in a payload")
	}
}

// An aliased record's capacity ends at its last cell: appending to it
// allocates instead of writing over the next record.
func TestAliasedAppendLeavesNextRecord(t *testing.T) {
	c := BinaryCodec[int32]{}
	first := keyedTestBlock(dag.Rect{Rows: 1, Cols: 3}, 10)
	second := keyedTestBlock(dag.Rect{Row0: 1, Rows: 1, Cols: 3}, 20)
	data, err := EncodeBlocks(c, []*Block[int32]{first, second})
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(data)
	got, err := DecodeBlocks(c, data)
	if err != nil {
		t.Fatal(err)
	}
	if littleEndian && !aliases(got[0], data, countSize+headerSize) {
		t.Fatal("an aligned int32 record was copied")
	}
	_ = append(got[0].Cells, -1, -1, -1, -1, -1)
	if !bytes.Equal(data, before) || !slices.Equal(got[1].Cells, second.Cells) {
		t.Fatal("append to the first record's cells wrote over the second record")
	}
}

// DecodeBlock takes one block at its place in the geometry and refuses
// anything else with no block.
func TestDecodeBlockWantsOneBlockInPlace(t *testing.T) {
	c := BinaryCodec[int32]{}
	g := dag.MatrixGeometry(dag.Square(8), dag.Square(4))
	at, p := g.Rect(dag.Pos{Row: 1}), dag.Pos{Row: 1}
	encode := func(blocks ...*Block[int32]) []byte {
		data, err := EncodeBlocks(c, blocks)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if b, err := DecodeBlock(c, encode(keyedTestBlock(at, 1)), g, p); err != nil || b.Rect != at {
		t.Fatalf("one block in place: %v, %v", b, err)
	}
	for what, data := range map[string][]byte{
		"two blocks":           encode(keyedTestBlock(at, 1), keyedTestBlock(at, 2)),
		"no block":             encode(),
		"another block's rect": encode(keyedTestBlock(g.Rect(dag.Pos{}), 1)),
		"truncated":            encode(keyedTestBlock(at, 1))[:10],
	} {
		if b, err := DecodeBlock(c, data, g, p); err == nil || b != nil {
			t.Errorf("%s: decoded %v, %v", what, b, err)
		}
	}
}

// A block alone in its own payload encodes to that payload — the same
// bytes, not a copy — as long as its cells and rect are the payload's; once
// either is reassigned it is encoded afresh.
func TestEncodeReturnsOwnPayload(t *testing.T) {
	c := BinaryCodec[int32]{}
	encode := func(b *Block[int32]) []byte {
		t.Helper()
		p, err := EncodeBlocks(c, []*Block[int32]{b})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fresh := func(b *Block[int32]) []byte { return encode(b.Clone()) }

	built := filledBlock(NewPayloadBlock(c, aliasRect), func(k int) int32 { return int32(k * 7) })
	own := encode(built)
	if !bytes.Equal(own, fresh(built)) {
		t.Fatalf("constructor-built block encodes to %x, want %x", own, fresh(built))
	}
	if littleEndian && &encode(built)[0] != &own[0] {
		t.Fatal("a constructor-built block was encoded twice into two payloads")
	}

	decoded, err := DecodeBlocks(c, own)
	if err != nil {
		t.Fatal(err)
	}
	if again := encode(decoded[0]); !bytes.Equal(again, own) || littleEndian && &again[0] != &own[0] {
		t.Fatal("a block decoded alone did not encode to its own payload")
	}

	moved := built.Clone()
	moved.Cells[0] = 99
	built.Cells = moved.Cells
	if p := encode(built); &p[0] == &own[0] || !bytes.Equal(p, fresh(moved)) || own[countSize+headerSize] == 99 {
		t.Fatal("a block with reassigned cells was not encoded afresh")
	}

	shifted := NewPayloadBlock(c, aliasRect)
	shifted.Rect.Row0++
	if p := encode(shifted); !bytes.Equal(p, fresh(shifted)) {
		t.Fatalf("a block with a reassigned rect encodes to %x, want %x", p, fresh(shifted))
	}
}
