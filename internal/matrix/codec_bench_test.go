package matrix

import (
	"testing"

	"repro/internal/dag"
)

// benchPayloadBlocks is a 2D/0D task's data region: three 128×128 int32
// blocks (192 KiB of cells).
func benchPayloadBlocks() []*Block[int32] {
	var blocks []*Block[int32]
	for k := 0; k < 3; k++ {
		b := NewBlock[int32](dag.Rect{Row0: 128 * k, Col0: 128, Rows: 128, Cols: 128})
		for i := range b.Cells {
			b.Cells[i] = int32(i * (k + 1))
		}
		blocks = append(blocks, b)
	}
	return blocks
}

func benchKeyed(blocks []*Block[int32]) []KeyedBlock[int32] {
	full := make([]KeyedBlock[int32], len(blocks))
	for k, b := range blocks {
		full[k] = KeyedBlock[int32]{Key: [32]byte{byte(k + 1)}, Block: b}
	}
	return full
}

var benchSink int

func BenchmarkEncodeBlocks(b *testing.B) {
	c := BinaryCodec[int32]{}
	blocks := benchPayloadBlocks()
	full := benchKeyed(blocks)
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := EncodeBlocks(c, blocks)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			benchSink += len(data)
		}
	})
	b.Run("keyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := EncodeBlocksKeyed(c, full, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			benchSink += len(data)
		}
	})
}

func BenchmarkDecodeBlocks(b *testing.B) {
	c := BinaryCodec[int32]{}
	blocks := benchPayloadBlocks()
	plain, err := EncodeBlocks(c, blocks)
	if err != nil {
		b.Fatal(err)
	}
	keyed, err := EncodeBlocksKeyed(c, benchKeyed(blocks), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(plain)))
		for i := 0; i < b.N; i++ {
			got, err := DecodeBlocks(c, plain)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(got)
		}
	})
	b.Run("keyed", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(keyed)))
		for i := 0; i < b.N; i++ {
			got, _, err := DecodeBlocksAny(c, keyed, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(got)
		}
	})
}
