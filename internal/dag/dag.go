// Package dag implements the DAG Data Driven Model of EasyHPS.
//
// A dynamic-programming problem is described by a DP matrix and a
// recurrence. The matrix is partitioned into rectangular blocks; the blocks
// form a directed acyclic graph whose edges follow the data dependencies of
// the recurrence. The same machinery is applied twice in the multilevel
// runtime: once at processor level (the whole matrix partitioned with
// process_partition_size) and once at thread level (a single processor-level
// block partitioned again with thread_partition_size).
//
// The model distinguishes two dependency levels, following the paper:
//
//   - the topological level (Precursors): a minimal set of direct
//     predecessor blocks sufficient to define a correct execution order;
//   - the data-communication level (DataDeps): the full set of blocks whose
//     cells the recurrence may read, used to decide which blocks must be
//     shipped to a slave before it can execute a sub-task.
//
// Every data dependency is reachable from the vertex through topological
// edges, so a block is only ever scheduled after all blocks it reads from
// are complete. This invariant is verified by tests for every library
// pattern.
package dag

import "fmt"

// Pos identifies a vertex of a block grid (or a cell, for 1x1 blocks) by
// row and column, both zero based.
type Pos struct {
	Row, Col int
}

func (p Pos) String() string { return fmt.Sprintf("(%d,%d)", p.Row, p.Col) }

// Size is a rectangular extent in rows and columns.
type Size struct {
	Rows, Cols int
}

func (s Size) String() string { return fmt.Sprintf("%dx%d", s.Rows, s.Cols) }

// Square returns an n-by-n Size.
func Square(n int) Size { return Size{Rows: n, Cols: n} }

// DefaultPartition is the processor-level block size of an n matrix when
// the caller names none: an 8x8 grid of blocks, rounded up. Master and
// workers each derive a job's geometry from it, so there is one rule.
func DefaultPartition(n Size) Size {
	return Size{Rows: (n.Rows + 7) / 8, Cols: (n.Cols + 7) / 8}
}

// Cells returns the number of cells in the extent.
func (s Size) Cells() int { return s.Rows * s.Cols }

// Valid reports whether both dimensions are positive.
func (s Size) Valid() bool { return s.Rows > 0 && s.Cols > 0 }

// Rect is a half-open rectangular region of matrix cells:
// rows [Row0, Row0+Rows) and columns [Col0, Col0+Cols).
type Rect struct {
	Row0, Col0 int
	Rows, Cols int
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d]", r.Row0, r.Row0+r.Rows, r.Col0, r.Col0+r.Cols)
}

// Contains reports whether cell (i, j) lies inside the region.
func (r Rect) Contains(i, j int) bool {
	return i >= r.Row0 && i < r.Row0+r.Rows && j >= r.Col0 && j < r.Col0+r.Cols
}

// Covers reports whether s is a non-empty region inside r.
func (r Rect) Covers(s Rect) bool {
	return !s.Empty() && r.Contains(s.Row0, s.Col0) && r.Contains(s.Row0+s.Rows-1, s.Col0+s.Cols-1)
}

// Cells returns the number of cells in the region.
func (r Rect) Cells() int { return r.Rows * r.Cols }

// Empty reports whether the region has no cells.
func (r Rect) Empty() bool { return r.Rows <= 0 || r.Cols <= 0 }

// Geometry describes one level of partitioning: a Region of the DP matrix
// divided into blocks of at most Block cells, forming a Grid of block
// positions. At processor level Region covers the whole matrix; at thread
// level Region is a single processor-level block.
type Geometry struct {
	// Region is the cell region being partitioned.
	Region Rect
	// Block is the partition size (partition_size in the paper). Edge
	// blocks are clipped and may be smaller.
	Block Size
	// Grid is the resulting block grid size (rect_size in the paper).
	Grid Size
}

// NewGeometry partitions region into blocks of size block.
func NewGeometry(region Rect, block Size) Geometry {
	if region.Empty() {
		panic("dag: empty region")
	}
	if !block.Valid() {
		panic("dag: invalid block size " + block.String())
	}
	return Geometry{
		Region: region,
		Block:  block,
		Grid: Size{
			Rows: ceilDiv(region.Rows, block.Rows),
			Cols: ceilDiv(region.Cols, block.Cols),
		},
	}
}

// MatrixGeometry partitions the full n-sized matrix: the processor-level
// geometry of a problem.
func MatrixGeometry(n Size, block Size) Geometry {
	return NewGeometry(Rect{Row0: 0, Col0: 0, Rows: n.Rows, Cols: n.Cols}, block)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Rect returns the (clipped) cell region of block p.
func (g Geometry) Rect(p Pos) Rect {
	r := Rect{
		Row0: g.Region.Row0 + p.Row*g.Block.Rows,
		Col0: g.Region.Col0 + p.Col*g.Block.Cols,
		Rows: g.Block.Rows,
		Cols: g.Block.Cols,
	}
	if over := r.Row0 + r.Rows - (g.Region.Row0 + g.Region.Rows); over > 0 {
		r.Rows -= over
	}
	if over := r.Col0 + r.Cols - (g.Region.Col0 + g.Region.Cols); over > 0 {
		r.Cols -= over
	}
	return r
}

// BlockOf returns the grid position of the block containing cell (i, j).
// The cell must lie inside the region.
func (g Geometry) BlockOf(i, j int) Pos {
	return Pos{
		Row: (i - g.Region.Row0) / g.Block.Rows,
		Col: (j - g.Region.Col0) / g.Block.Cols,
	}
}

// IsBlock reports whether r is exactly the region of one block of g, not a
// part of one (DataRegion).
func (g Geometry) IsBlock(r Rect) bool {
	p := g.BlockOf(r.Row0, r.Col0)
	return g.InGrid(p) && g.Rect(p) == r
}

// InGrid reports whether p is a valid grid position.
func (g Geometry) InGrid(p Pos) bool {
	return p.Row >= 0 && p.Row < g.Grid.Rows && p.Col >= 0 && p.Col < g.Grid.Cols
}

// ID returns the dense integer id of grid position p.
func (g Geometry) ID(p Pos) int32 { return int32(p.Row*g.Grid.Cols + p.Col) }

// PosOf is the inverse of ID.
func (g Geometry) PosOf(id int32) Pos {
	return Pos{Row: int(id) / g.Grid.Cols, Col: int(id) % g.Grid.Cols}
}
