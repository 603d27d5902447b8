package matrix

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
)

// le32 is a payload written by hand, one little-endian int32 per value.
func le32(vals ...int32) []byte {
	var out []byte
	for _, v := range vals {
		out = appendInt32(out, int(v))
	}
	return out
}

func withKey(header []byte) []byte { return append(header, make([]byte, keySize)...) }

// The two inputs that brought a master down before the decoders checked
// sizes against the bytes present: a 20-byte payload whose one block claims
// 2³⁰×2³⁰ cells (makeslice: len out of range, a panic) and a 4-byte payload
// claiming 2³¹-1 blocks (a 16 GiB []*Block: fatal out of memory, which no
// recover catches). Plain, and their keyed twins.
var (
	crashHugeBlock      = le32(1, 0, 0, 1<<30, 1<<30)
	crashHugeCount      = le32(0x7fffffff)
	crashHugeBlockKeyed = append(le32(-2), withKey(le32(0, 0, 1<<30, 1<<30))...)
	crashHugeCountKeyed = le32(-0x80000000)
)

func TestDecodeRefusesBeforeAllocating(t *testing.T) {
	c := BinaryCodec[int32]{}
	valid, err := EncodeBlocks(c, []*Block[int32]{keyedTestBlock(dag.Rect{Rows: 2, Cols: 2}, 1)})
	if err != nil {
		t.Fatal(err)
	}
	validKeyed, err := EncodeBlocksKeyed(c, []KeyedBlock[int32]{{Key: [32]byte{1}, Block: keyedTestBlock(dag.Rect{Rows: 2, Cols: 2}, 1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resolveAny := func([32]byte) (*Block[int32], bool) { return NewBlock[int32](dag.Rect{Rows: 2, Cols: 2}), true }
	cases := []struct {
		name    string
		payload []byte
	}{
		{"huge block", crashHugeBlock},
		{"huge count", crashHugeCount},
		{"huge block, keyed", crashHugeBlockKeyed},
		{"huge count, keyed", crashHugeCountKeyed},
		{"count beyond the headers present", append(le32(3), le32(0, 0, 1, 1, 7, 0, 1, 1, 1)...)},
		{"zero rows", le32(1, 0, 0, 0, 4)},
		{"negative rows", le32(1, 0, 0, -2, 2, 1, 2, 3, 4)},
		{"negative cols", le32(1, 0, 0, 2, -2, 1, 2, 3, 4)},
		{"zero rows, keyed", append(le32(-2), withKey(le32(0, 0, 0, 4))...)},
		{"negative cols, keyed", append(le32(-2), withKey(le32(0, 0, 2, -2))...)},
		{"reference with zero cols", append(le32(-2), withKey(le32(0, 0, -2, 0))...)},
		{"reference with negative cols", append(le32(-2), withKey(le32(0, 0, -2, -2))...)},
		{"cells cut short", valid[:len(valid)-1]},
		{"cells cut short, keyed", validKeyed[:len(validKeyed)-1]},
		{"header cut short", le32(1, 0, 0, 2)},
		{"key cut short", append(le32(-2), le32(0, 0, 2, 2, 9)...)},
		{"trailing byte", append(bytes.Clone(valid), 0)},
		{"trailing byte, keyed", append(bytes.Clone(validKeyed), 0)},
		{"trailing byte after no blocks", append(le32(0), 0)},
		{"no count", []byte{1, 2}},
		{"empty", nil},
	}
	for _, tc := range cases {
		if _, _, err := DecodeBlocksAny(c, tc.payload, resolveAny, nil); err == nil {
			t.Errorf("%s: DecodeBlocksAny accepted %x", tc.name, tc.payload)
		}
		if _, err := DecodeBlocks(c, tc.payload); err == nil {
			t.Errorf("%s: DecodeBlocks accepted %x", tc.name, tc.payload)
		}
	}

	// A custom codec's cells are sized by its CellSize: 100×100 cells
	// claimed over 20 bytes is refused before the block is allocated.
	packed, err := EncodeBlocks[pinnedCell](packedCodec{}, []*Block[pinnedCell]{NewBlock[pinnedCell](dag.Rect{Rows: 2, Cols: 2})})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(packed[countSize+8:], 100)
	binary.LittleEndian.PutUint32(packed[countSize+12:], 100)
	if _, err := DecodeBlocks[pinnedCell](packedCodec{}, packed); err == nil || !strings.Contains(err.Error(), "claims 10000 cells") {
		t.Errorf("custom-codec block claiming more cells than bytes: %v", err)
	}
}

// packedCodec is README's example of a codec for a custom cell type: a
// struct cell in five bytes.
type packedCodec struct{}

func (packedCodec) CellSize() int { return 5 }

func (packedCodec) AppendCells(dst []byte, cells []pinnedCell) ([]byte, error) {
	for _, c := range cells {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Score))
		dst = append(dst, c.Dir)
	}
	return dst, nil
}

func (packedCodec) DecodeCells(src []byte, cells []pinnedCell) ([]byte, error) {
	if len(src) < 5*len(cells) {
		return nil, io.ErrUnexpectedEOF
	}
	for i := range cells {
		cells[i] = pinnedCell{Score: int32(binary.LittleEndian.Uint32(src)), Dir: src[4]}
		src = src[5:]
	}
	return src, nil
}

// A codec from outside the package gets the same treatment as the two
// inside it: a payload sized exactly from CellSize, a round trip, and the
// size check before the block is allocated.
func TestCustomFixedSizeCodec(t *testing.T) {
	var c Codec[pinnedCell] = packedCodec{}
	b := NewBlock[pinnedCell](dag.Rect{Row0: 3, Col0: 1, Rows: 2, Cols: 3})
	for k := range b.Cells {
		b.Cells[k] = pinnedCell{Score: int32(pinnedBits(k)), Dir: uint8(k)}
	}
	data, err := EncodeBlocks(c, []*Block[pinnedCell]{b})
	if err != nil {
		t.Fatal(err)
	}
	if want := countSize + headerSize + 5*len(b.Cells); len(data) != want || cap(data) != want {
		t.Fatalf("payload len %d cap %d, want both %d", len(data), cap(data), want)
	}
	got, err := DecodeBlocks(c, data)
	if err != nil || len(got) != 1 || got[0].Rect != b.Rect || !slices.Equal(got[0].Cells, b.Cells) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if _, err := DecodeBlocks(c, data[:len(data)-1]); err == nil {
		t.Fatal("payload one byte short of its cells accepted")
	}
}

// regionRects are what a wavefront task carries of its three dependencies
// (dag.DataRegion): 1×N, N×1 and 1×1 records. regionRefKey names the first
// in the keyed seed, a reference to a region.
var (
	regionRects  = []dag.Rect{{Row0: 3, Col0: 4, Rows: 1, Cols: 4}, {Row0: 4, Col0: 3, Rows: 4, Cols: 1}, {Row0: 3, Col0: 3, Rows: 1, Cols: 1}}
	regionRefKey = [32]byte{0xee, 0x01}
)

// fuzzResolve resolves the references of the seed payloads (the pinned
// fixtures' two keys and regionRefKey) and misses on anything else.
func fuzzResolve[T any](k [32]byte) (*Block[T], bool) {
	switch {
	case k[0] == 0x80 && k[31] == 0x80+31:
		return NewBlock[T](pinnedRects[2]), true
	case k == [32]byte{0xaa, 0xbb, 0xcc}:
		return NewBlock[T](dag.Rect{Row0: 8, Col0: 16, Rows: 2, Cols: 3}), true
	case k == regionRefKey:
		return NewBlock[T](regionRects[0]), true
	}
	return nil, false
}

// fuzzDecode is the property: a payload decodes or is refused, without a
// panic; and for a fixed-size codec a payload that decodes, its records in
// the encoder's order, encodes back to the same bytes, so no two payloads
// mean the same blocks (the content keys depend on that). It holds at each
// of the eight alignments of the payload, so both the decoder that aliases
// cells and the one that copies them are fuzzed; and a payload's blocks
// re-encoded directly — a block decoded alone returning its own payload —
// give the bytes their copies do.
func fuzzDecode[T any](t *testing.T, c Codec[T], data []byte) {
	for k := 0; k < 8; k++ {
		fuzzDecodeAt(t, c, placed(data, k))
	}
}

func fuzzDecodeAt[T any](t *testing.T, c Codec[T], data []byte) {
	blocks, plainErr := DecodeBlocks(c, data)
	if plainErr == nil {
		own, err := EncodeBlocks(c, blocks)
		copies := make([]*Block[T], len(blocks))
		for i, b := range blocks {
			copies[i] = b.Clone()
		}
		fresh, freshErr := EncodeBlocks(c, copies)
		if (err == nil) != (freshErr == nil) || !bytes.Equal(own, fresh) {
			t.Fatalf("decoded blocks encode to %x (%v), their copies to %x (%v)", own, err, fresh, freshErr)
		}
	}
	out, canonical, err := reencodeOrdered(c, data, fuzzResolve[T])
	keyed := len(data) >= countSize && readInt32(data) < 0
	if (plainErr == nil) != (err == nil && !keyed) {
		t.Fatalf("DecodeBlocks (%v) and DecodeBlocksAny (%v, keyed %v) disagree on %x", plainErr, err, keyed, data)
	}
	if err != nil {
		return
	}
	if c.CellSize() > 0 && canonical && !bytes.Equal(out, data) {
		t.Fatalf("payload decoded but re-encoded differently\n in  %x\n out %x", data, out)
	}
}

func FuzzDecodeBlocks(f *testing.F) {
	kinds := []string{"int32", "int64", "uint32", "uint64", "float32", "float64"}
	for kind, name := range kinds {
		for _, format := range []string{"plain_", "keyed_"} {
			seed, err := os.ReadFile(filepath.Join("testdata", format+name+".bin"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(kind), seed)
		}
	}
	refOnly, err := os.ReadFile(filepath.Join("testdata", "keyed_ref_only.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), refOnly)
	var regions []*Block[int32]
	for _, r := range regionRects {
		regions = append(regions, NewBlock[int32](r))
	}
	plainRegions, err := EncodeBlocks(BinaryCodec[int32]{}, regions)
	if err != nil {
		f.Fatal(err)
	}
	keyedRegions, err := EncodeBlocksKeyed(BinaryCodec[int32]{},
		[]KeyedBlock[int32]{{Key: [32]byte{1}, Block: regions[1]}, {Key: [32]byte{2}, Block: regions[2]}},
		[]BlockRef{{Key: regionRefKey, Rect: regionRects[0]}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), plainRegions)
	f.Add(uint8(0), keyedRegions)
	// Kind 6 is a custom codec, whose cells are decoded into fresh memory:
	// one payload of each format.
	packedBlock := NewBlock[pinnedCell](pinnedRects[0])
	packedPlain, err := EncodeBlocks[pinnedCell](packedCodec{}, []*Block[pinnedCell]{packedBlock})
	if err != nil {
		f.Fatal(err)
	}
	packedKeyed, err := EncodeBlocksKeyed[pinnedCell](packedCodec{}, []KeyedBlock[pinnedCell]{{Key: [32]byte{3}, Block: packedBlock}}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(6), packedPlain)
	f.Add(uint8(6), packedKeyed)
	for _, crasher := range [][]byte{crashHugeBlock, crashHugeCount, crashHugeBlockKeyed, crashHugeCountKeyed} {
		f.Add(uint8(0), crasher)
		f.Add(uint8(6), crasher)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch int(kind) % (len(kinds) + 1) {
		case 0:
			fuzzDecode[int32](t, BinaryCodec[int32]{}, data)
		case 1:
			fuzzDecode[int64](t, BinaryCodec[int64]{}, data)
		case 2:
			fuzzDecode[uint32](t, BinaryCodec[uint32]{}, data)
		case 3:
			fuzzDecode[uint64](t, BinaryCodec[uint64]{}, data)
		case 4:
			fuzzDecode[float32](t, BinaryCodec[float32]{}, data)
		case 5:
			fuzzDecode[float64](t, BinaryCodec[float64]{}, data)
		case 6:
			fuzzDecode[pinnedCell](t, packedCodec{}, data)
		}
	})
}
