// Package matrix provides blocked storage for DP matrices: individual
// blocks, a thread-safe block store (the master's view of the matrix), a
// read view used while computing one sub-task, and wire codecs for
// shipping blocks between nodes.
package matrix

import (
	"fmt"

	"repro/internal/dag"
)

// Block is one rectangular tile of the DP matrix in row-major layout.
// Cells are addressed with global matrix coordinates.
type Block[T any] struct {
	Rect  dag.Rect
	Cells []T

	// payload, when set, is the one-block payload Cells live in (alias.go):
	// EncodeBlocks of this block alone returns it instead of encoding.
	payload []byte
}

// NewBlock allocates a zeroed block covering r.
func NewBlock[T any](r dag.Rect) *Block[T] {
	return &Block[T]{Rect: r, Cells: make([]T, r.Cells())}
}

func (b *Block[T]) index(i, j int) int {
	return (i-b.Rect.Row0)*b.Rect.Cols + (j - b.Rect.Col0)
}

// At returns the cell at global coordinates (i, j), which must lie inside
// the block.
func (b *Block[T]) At(i, j int) T { return b.Cells[b.index(i, j)] }

// CopyFrom copies every cell of src, whose region must lie inside the
// block's, to the same matrix coordinates of b, a row at a time.
func (b *Block[T]) CopyFrom(src *Block[T]) {
	r := src.Rect
	for i := 0; i < r.Rows; i++ {
		copy(b.Cells[b.index(r.Row0+i, r.Col0):], src.Cells[i*r.Cols:(i+1)*r.Cols])
	}
}

// Region returns the cells of b inside r as a block of its own: what is
// shipped of b to a task that reads only r of it (dag.DataRegion). A region
// of whole rows aliases b's cells — a committed block is immutable — and any
// other is a copy of its r.Cells() cells. r must be a non-empty part of
// b.Rect.
func (b *Block[T]) Region(r dag.Rect) *Block[T] {
	if r == b.Rect {
		return b
	}
	if !b.Rect.Covers(r) {
		panic(fmt.Sprintf("matrix: region %v is not a part of %v", r, b))
	}
	k := b.index(r.Row0, r.Col0)
	if r.Cols == b.Rect.Cols {
		return &Block[T]{Rect: r, Cells: b.Cells[k : k+r.Cells() : k+r.Cells()]}
	}
	out := NewBlock[T](r)
	for i := 0; i < r.Rows; i++ {
		copy(out.Cells[i*r.Cols:(i+1)*r.Cols], b.Cells[k+i*b.Rect.Cols:])
	}
	return out
}

func (b *Block[T]) String() string {
	return fmt.Sprintf("block%v", b.Rect)
}
