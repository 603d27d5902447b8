package matrix

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func TestBlockAtSet(t *testing.T) {
	b := NewBlock[int32](dag.Rect{Row0: 10, Col0: 20, Rows: 3, Cols: 4})
	b.Set(11, 22, 42)
	if got := b.At(11, 22); got != 42 {
		t.Fatalf("At = %d, want 42", got)
	}
	if b.At(10, 20) != 0 {
		t.Fatal("fresh cells must be zero")
	}
	if !b.Rect.Contains(12, 23) || b.Rect.Contains(13, 20) || b.Rect.Contains(10, 24) {
		t.Fatal("Contains wrong")
	}
}

// Set stores v at global coordinates (i, j): how the tests fill a block.
func (b *Block[T]) Set(i, j int, v T) { b.Cells[b.index(i, j)] = v }

// Clone returns a deep copy of the block: the oracle the codec tests
// compare decoded blocks against.
func (b *Block[T]) Clone() *Block[T] {
	c := &Block[T]{Rect: b.Rect, Cells: make([]T, len(b.Cells))}
	copy(c.Cells, b.Cells)
	return c
}

func TestBlockClone(t *testing.T) {
	b := NewBlock[int32](dag.Rect{Rows: 2, Cols: 2})
	b.Set(0, 0, 7)
	c := b.Clone()
	c.Set(0, 0, 9)
	if b.At(0, 0) != 7 {
		t.Fatal("Clone shares storage")
	}
}

func TestStorePutGetAssemble(t *testing.T) {
	g := dag.MatrixGeometry(dag.Square(6), dag.Square(4)) // 2x2 grid, clipped edges
	s := NewStore[int32](g)
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			p := dag.Pos{Row: r, Col: c}
			b := NewBlock[int32](g.Rect(p))
			for i := b.Rect.Row0; i < b.Rect.Row0+b.Rect.Rows; i++ {
				for j := b.Rect.Col0; j < b.Rect.Col0+b.Rect.Cols; j++ {
					b.Set(i, j, int32(i*10+j))
				}
			}
			s.Put(p, b)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	m := s.Assemble()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if m[i][j] != int32(i*10+j) {
				t.Fatalf("Assemble[%d][%d] = %d, want %d", i, j, m[i][j], i*10+j)
			}
		}
	}
	if got := s.Cell(5, 5); got != 55 {
		t.Fatalf("Cell = %d, want 55", got)
	}
}

func TestStorePutWrongRectPanics(t *testing.T) {
	g := dag.MatrixGeometry(dag.Square(8), dag.Square(4))
	s := NewStore[int32](g)
	b := NewBlock[int32](dag.Rect{Rows: 4, Cols: 4}) // rect of (0,0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Put(dag.Pos{Row: 1, Col: 1}, b)
}

func TestStoreGatherMissingPanics(t *testing.T) {
	g := dag.MatrixGeometry(dag.Square(8), dag.Square(4))
	s := NewStore[int32](g)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Gather([]dag.Pos{{Row: 0, Col: 0}})
}

func TestStoreConcurrent(t *testing.T) {
	g := dag.MatrixGeometry(dag.Square(32), dag.Square(2)) // 16x16 grid
	s := NewStore[int32](g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				for c := w; c < 16; c += 8 {
					p := dag.Pos{Row: r, Col: c}
					s.Put(p, NewBlock[int32](g.Rect(p)))
					_ = s.Get(p)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 256 {
		t.Fatalf("Len = %d, want 256", s.Len())
	}
}

func TestViewResolution(t *testing.T) {
	out := NewBlock[int32](dag.Rect{Row0: 4, Col0: 4, Rows: 2, Cols: 2})
	out.Set(4, 4, 1)
	in := NewBlock[int32](dag.Rect{Row0: 2, Col0: 4, Rows: 2, Cols: 2})
	in.Set(3, 5, 2)
	boundary := func(i, j int) int32 { return -9 }
	v := NewView(out, []*Block[int32]{in}, dag.Wavefront{}, dag.Square(8), boundary)

	if got := v.Get(4, 4); got != 1 {
		t.Errorf("out cell = %d, want 1", got)
	}
	if got := v.Get(3, 5); got != 2 {
		t.Errorf("in cell = %d, want 2", got)
	}
	if got := v.Get(-1, 0); got != -9 {
		t.Errorf("boundary cell = %d, want -9", got)
	}
	// Repeated input reads exercise the single-block cache.
	if got := v.Get(2, 4); got != 0 {
		t.Errorf("cached in cell = %d, want 0", got)
	}
	v.Out().Set(5, 5, 77)
	if out.At(5, 5) != 77 {
		t.Error("Out().Set did not reach the output block")
	}
	if v.Out() != out {
		t.Error("Out did not return the output block")
	}
}

// A computed cell no block holds means the pattern's DataDeps did not
// ship it: the read must panic with the under-specified-region diagnostic,
// through Get and through a run request, with and without holes in the
// pattern — while a cell outside the matrix stays a boundary read.
func TestViewOutsideRegionPanics(t *testing.T) {
	out := NewBlock[int32](dag.Rect{Rows: 2, Cols: 2})
	boundary := func(i, j int) int32 { return -9 }
	reads := map[string]func(v *View[int32], i, j int){
		"Get":  func(v *View[int32], i, j int) { v.Get(i, j) },
		"Row":  func(v *View[int32], i, j int) { v.Row(i, j, 3) },
		"Band": func(v *View[int32], i, j int) { v.Band(i, j, 2, 3) },
	}
	for _, pat := range []dag.Pattern{dag.Wavefront{}, dag.Triangular{}, dag.Custom{PatternName: "odd", CellExistsFunc: func(i, j int) bool { return (i+j)%2 == 0 }}} {
		for name, read := range reads {
			v := NewView(out, nil, pat, dag.Square(16), boundary)
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "outside the sub-task data region") {
						t.Errorf("%s/%s: unshipped cell: got %q, want the under-specified-region panic", pat.Name(), name, msg)
					}
				}()
				read(v, 10, 10)
			}()
			read(v, 16, 3) // outside the matrix: no panic
		}
		v := NewView(out, nil, pat, dag.Square(16), boundary)
		if got := v.Get(3, 16); got != -9 {
			t.Errorf("%s: read outside the matrix = %d, want the boundary value", pat.Name(), got)
		}
		if run := v.Row(-1, 0, 4); run != nil {
			t.Errorf("%s: run outside the matrix = %v, want nil", pat.Name(), run)
		}
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	f := func(cells []int64) bool {
		b := &Block[int64]{Rect: dag.Rect{Rows: 1, Cols: len(cells)}, Cells: cells}
		if len(cells) == 0 {
			b.Rect = dag.Rect{Rows: 1, Cols: 1}
			b.Cells = []int64{0}
		}
		data, err := EncodeBlocks[int64](BinaryCodec[int64]{}, []*Block[int64]{b})
		if err != nil {
			return false
		}
		got, err := DecodeBlocks[int64](BinaryCodec[int64]{}, data)
		if err != nil || len(got) != 1 || got[0].Rect != b.Rect {
			return false
		}
		for k := range b.Cells {
			if got[0].Cells[k] != b.Cells[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlocksRejectsGarbage(t *testing.T) {
	if _, err := DecodeBlocks[int32](BinaryCodec[int32]{}, []byte{1, 2}); err == nil {
		t.Error("short input accepted")
	}
	// Negative count.
	if _, err := DecodeBlocks[int32](BinaryCodec[int32]{}, []byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestEncodeBlocksMultiBlockSizes(t *testing.T) {
	g := dag.MatrixGeometry(dag.Square(10), dag.Square(3))
	var blocks []*Block[float64]
	for r := 0; r < g.Grid.Rows; r++ {
		for c := 0; c < g.Grid.Cols; c++ {
			b := NewBlock[float64](g.Rect(dag.Pos{Row: r, Col: c}))
			for k := range b.Cells {
				b.Cells[k] = float64(r*100 + c*10 + k)
			}
			blocks = append(blocks, b)
		}
	}
	data, err := EncodeBlocks[float64](BinaryCodec[float64]{}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlocks[float64](BinaryCodec[float64]{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(blocks))
	}
	for k := range blocks {
		if got[k].Rect != blocks[k].Rect {
			t.Fatalf("block %d rect %v != %v", k, got[k].Rect, blocks[k].Rect)
		}
		for c := range blocks[k].Cells {
			if got[k].Cells[c] != blocks[k].Cells[c] {
				t.Fatalf("block %d cell %d mismatch", k, c)
			}
		}
	}
}

func TestStoreDrop(t *testing.T) {
	g := dag.MatrixGeometry(dag.Square(8), dag.Square(4))
	s := NewStore[int32](g)
	p := dag.Pos{Row: 0, Col: 0}
	s.Put(p, NewBlock[int32](g.Rect(p)))
	if s.Len() != 1 {
		t.Fatal("put failed")
	}
	s.Drop(p)
	if s.Len() != 0 || s.Get(p) != nil {
		t.Fatal("drop failed")
	}
	s.Drop(p) // idempotent
}

// Take hands the blocks over and leaves nothing behind, not even a block
// committed after it: a job that ends while a result is in its commit must
// not keep that block in the retired job.
func TestStorePutAfterTakeHoldsNothing(t *testing.T) {
	g := dag.MatrixGeometry(dag.Square(8), dag.Square(4))
	s := NewStore[int32](g)
	p, q := dag.Pos{Row: 0, Col: 0}, dag.Pos{Row: 0, Col: 1}
	s.Put(p, NewBlock[int32](g.Rect(p)))
	out := s.Take()
	if out.Len() != 1 || out.Get(p) == nil {
		t.Fatalf("the taken store holds %d blocks, want the one put before Take", out.Len())
	}
	s.Put(q, NewBlock[int32](g.Rect(q)))
	if s.Len() != 0 || s.Get(q) != nil {
		t.Fatalf("a Put after Take left %d blocks in the retired store", s.Len())
	}
	if out.Len() != 1 || out.Get(q) != nil {
		t.Fatal("a Put after Take reached the handed-over store")
	}

	// Commits racing the hand-over: each block lands in the taken store or
	// nowhere.
	g = dag.MatrixGeometry(dag.Square(32), dag.Square(2)) // 16x16 grid
	s = NewStore[int32](g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				for c := w; c < 16; c += 8 {
					p := dag.Pos{Row: r, Col: c}
					s.Put(p, NewBlock[int32](g.Rect(p)))
				}
			}
		}(w)
	}
	s.Take()
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("after racing commits the retired store holds %d blocks", s.Len())
	}
}

func TestAssembleWithHoles(t *testing.T) {
	// Missing blocks (triangular holes / reclaimed blocks) assemble as
	// zero values.
	g := dag.MatrixGeometry(dag.Square(4), dag.Square(2))
	s := NewStore[int32](g)
	p := dag.Pos{Row: 0, Col: 1}
	b := NewBlock[int32](g.Rect(p))
	b.Set(0, 2, 7)
	s.Put(p, b)
	m := s.Assemble()
	if m[0][2] != 7 {
		t.Fatal("stored cell lost")
	}
	if m[3][0] != 0 || m[0][0] != 0 {
		t.Fatal("hole cells not zero")
	}
}

// A region of a block is a block: whole rows alias the cells, anything else
// is a copy, the whole block is itself, and a rect that is not a part of the
// block is a bug.
func TestBlockRegion(t *testing.T) {
	b := NewBlock[int32](dag.Rect{Row0: 4, Col0: 8, Rows: 3, Cols: 5})
	for k := range b.Cells {
		b.Cells[k] = int32(k)
	}
	if b.Region(b.Rect) != b {
		t.Error("the whole block as a region is not the block")
	}
	for _, r := range []dag.Rect{
		{Row0: 6, Col0: 8, Rows: 1, Cols: 5},  // last row
		{Row0: 5, Col0: 8, Rows: 2, Cols: 5},  // last two rows
		{Row0: 4, Col0: 12, Rows: 3, Cols: 1}, // last column
		{Row0: 6, Col0: 12, Rows: 1, Cols: 1}, // corner
		{Row0: 5, Col0: 9, Rows: 2, Cols: 3},  // interior
	} {
		reg := b.Region(r)
		if reg.Rect != r || len(reg.Cells) != r.Cells() {
			t.Fatalf("region %v: rect %v with %d cells", r, reg.Rect, len(reg.Cells))
		}
		for i := r.Row0; i < r.Row0+r.Rows; i++ {
			for j := r.Col0; j < r.Col0+r.Cols; j++ {
				if reg.At(i, j) != b.At(i, j) {
					t.Fatalf("region %v: cell (%d,%d) = %d, block holds %d", r, i, j, reg.At(i, j), b.At(i, j))
				}
			}
		}
		if aliases := &reg.Cells[0] == &b.Cells[b.index(r.Row0, r.Col0)]; aliases != (r.Cols == b.Rect.Cols) {
			t.Errorf("region %v aliases the block: %v", r, aliases)
		}
	}
	for _, r := range []dag.Rect{{Row0: 6, Col0: 8, Rows: 2, Cols: 5}, {Row0: 4, Col0: 7, Rows: 1, Cols: 2}, {Row0: 4, Col0: 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("region %v of %v did not panic", r, b)
				}
			}()
			b.Region(r)
		}()
	}
}
