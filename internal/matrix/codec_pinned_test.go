package matrix

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/dag"
)

// The block payload is a format: checkpoint records, cache files and cas
// keys outlive the binary that wrote them. The fixtures under testdata/
// were written by the encoding/binary encoder this package had before the
// byte-slice codec (PR 14's tree); -update rewrites them from the current
// encoder and is only for a deliberate format change.
var updatePinned = flag.Bool("update", false, "rewrite testdata/*.bin from the current encoder")

// pinnedCell is the struct cell of the custom-codec tests (packedCodec).
type pinnedCell struct {
	Score int32
	Dir   uint8
}

// pinnedRects are ragged on purpose: non-square, one row, one column.
var pinnedRects = []dag.Rect{
	{Row0: 1, Col0: 2, Rows: 3, Cols: 5},
	{Row0: 0, Col0: 7, Rows: 1, Cols: 4},
	{Row0: 4, Col0: 0, Rows: 6, Cols: 1},
}

// pinnedBits is the k-th cell's bit pattern: every byte of a 64-bit cell
// non-zero and different, the sign bit set on about half of them.
func pinnedBits(k int) uint64 { return uint64(k+1)*0x9E3779B97F4A7C15 + 0x0102030405060708 }

func pinnedFloat(k int) float64 {
	switch k {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.NaN()
	}
	return float64(int32(pinnedBits(k))) / 3
}

// pinnedPayloads encodes the three pinned blocks plainly, and in the keyed
// format as two full blocks followed by a reference to the third, which
// resolve hands back.
func pinnedPayloads[T any](t *testing.T, c Codec[T], cell func(k int) T) (plain, keyed []byte, resolve func([32]byte) (*Block[T], bool)) {
	t.Helper()
	var blocks []*Block[T]
	k := 0
	for _, r := range pinnedRects {
		b := NewBlock[T](r)
		for i := range b.Cells {
			b.Cells[i] = cell(k)
			k++
		}
		blocks = append(blocks, b)
	}
	plain, err := EncodeBlocks(c, blocks)
	if err != nil {
		t.Fatal(err)
	}
	key := func(n byte) (k [32]byte) {
		for i := range k {
			k[i] = n + byte(i)
		}
		return k
	}
	keyed, err = EncodeBlocksKeyed(c,
		[]KeyedBlock[T]{{Key: key(0x10), Block: blocks[0]}, {Key: key(0x40), Block: blocks[1]}},
		[]BlockRef{{Key: key(0x80), Rect: blocks[2].Rect}})
	if err != nil {
		t.Fatal(err)
	}
	resolve = func(k [32]byte) (*Block[T], bool) {
		if k == key(0x80) {
			return blocks[2], true
		}
		return nil, false
	}
	return plain, keyed, resolve
}

// checkPinned compares one payload with its fixture byte for byte, and
// checks that the fixture decodes and re-encodes to itself.
func checkPinned(t *testing.T, name string, got []byte, reencode func(fixture []byte) ([]byte, error)) {
	t.Helper()
	path := filepath.Join("testdata", name+".bin")
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder wrote %d bytes that differ from the %d-byte fixture\n got %x\nwant %x", name, len(got), len(want), got, want)
	}
	again, err := reencode(want)
	if err != nil {
		t.Errorf("%s: fixture does not decode: %v", name, err)
	} else if !bytes.Equal(again, want) {
		t.Errorf("%s: fixture decoded and re-encoded to different bytes", name)
	}
}

func pinCodec[T any](t *testing.T, name string, c Codec[T], cell func(k int) T) {
	plain, keyed, resolve := pinnedPayloads(t, c, cell)
	checkPinned(t, "plain_"+name, plain, func(fixture []byte) ([]byte, error) {
		blocks, err := DecodeBlocks(c, fixture)
		if err != nil {
			return nil, err
		}
		return EncodeBlocks(c, blocks)
	})
	checkPinned(t, "keyed_"+name, keyed, func(fixture []byte) ([]byte, error) {
		return reencodeAny(c, fixture, resolve)
	})
}

// reencodeAny decodes a payload of either format and encodes what came out
// in the same format: full blocks under their recorded keys, then every
// resolved reference — the order EncodeBlocksKeyed writes.
func reencodeAny[T any](c Codec[T], data []byte, resolve func([32]byte) (*Block[T], bool)) ([]byte, error) {
	out, _, err := reencodeOrdered(c, data, resolve)
	return out, err
}

// reencodeOrdered is reencodeAny, also reporting whether the payload's
// records came in the encoder's order. The decoder takes references and
// full blocks in any order; only the encoder's order re-encodes to the
// same bytes.
func reencodeOrdered[T any](c Codec[T], data []byte, resolve func([32]byte) (*Block[T], bool)) (out []byte, canonical bool, err error) {
	var full []KeyedBlock[T]
	var refs []BlockRef
	canonical = true
	tracked := func(k [32]byte) (*Block[T], bool) {
		b, ok := resolve(k)
		if ok {
			refs = append(refs, BlockRef{Key: k, Rect: b.Rect})
		}
		return b, ok
	}
	record := func(k [32]byte, b *Block[T]) {
		canonical = canonical && len(refs) == 0
		full = append(full, KeyedBlock[T]{Key: k, Block: b})
	}
	blocks, keyed, err := DecodeBlocksAny(c, data, tracked, record)
	if err != nil {
		return nil, false, err
	}
	if !keyed {
		out, err = EncodeBlocks(c, blocks)
	} else {
		out, err = EncodeBlocksKeyed(c, full, refs)
	}
	return out, canonical, err
}

func TestCodecBytesPinned(t *testing.T) {
	pinCodec[int32](t, "int32", BinaryCodec[int32]{}, func(k int) int32 { return int32(pinnedBits(k)) })
	pinCodec[int64](t, "int64", BinaryCodec[int64]{}, func(k int) int64 { return int64(pinnedBits(k)) })
	pinCodec[uint32](t, "uint32", BinaryCodec[uint32]{}, func(k int) uint32 { return uint32(pinnedBits(k)) })
	pinCodec[uint64](t, "uint64", BinaryCodec[uint64]{}, pinnedBits)
	pinCodec[float32](t, "float32", BinaryCodec[float32]{}, func(k int) float32 { return float32(pinnedFloat(k)) })
	pinCodec[float64](t, "float64", BinaryCodec[float64]{}, pinnedFloat)

	// A payload that is one reference record and nothing else: what a
	// task's inputs look like when the worker already holds all of them.
	c := BinaryCodec[int32]{}
	held := NewBlock[int32](dag.Rect{Row0: 8, Col0: 16, Rows: 2, Cols: 3})
	ref := BlockRef{Key: [32]byte{0xaa, 0xbb, 0xcc}, Rect: held.Rect}
	only, err := EncodeBlocksKeyed(c, nil, []BlockRef{ref})
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "keyed_ref_only", only, func(fixture []byte) ([]byte, error) {
		return reencodeAny(c, fixture, func(k [32]byte) (*Block[int32], bool) { return held, k == ref.Key })
	})
}

// The content key of a block is the sha256 of its plain payload; cache
// directories and checkpoint logs are addressed by it. Pinned as a
// constant so a drift fails here, by name, and not as a cold cache.
func TestPayloadKeyPinned(t *testing.T) {
	const want = "5cc144ffbff58ac87732b4238bcf331ec5e24e3c30f410afd18c758c97a7385a"
	plain, _, _ := pinnedPayloads[int32](t, BinaryCodec[int32]{}, func(k int) int32 { return int32(pinnedBits(k)) })
	key := cas.PayloadKey(plain)
	if got := hex.EncodeToString(key[:]); got != want {
		t.Fatalf("cas.PayloadKey(plain_int32) = %s, want %s", got, want)
	}
}
