// Package core implements the EasyHPS runtime: the master part that
// schedules processor-level sub-tasks over slave nodes, the slave part that
// re-partitions each sub-task over compute threads, the dynamic worker
// pools at both levels, and the hierarchical timeout-based fault tolerance
// described in §V of the paper. The master is one driver (Driver) of
// internal/engine's scheduler for both sources of members: the fixed ranks
// of a comm.Transport (RunContext, RunMasterContext) and the elastic
// workers of internal/fleet, whose membership table (Registry) lives here
// beside it.
package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/tune"
)

// Kernel is what a user implements to run a DP algorithm on EasyHPS — the
// counterpart of the paper's user APIs (Table I): the DAG Pattern Model of
// the recurrence, the boundary values, and the per-cell recurrence itself.
//
// Cell must be deterministic and must read, through the view, only cells
// that the pattern declares reachable: within the current block (already
// computed in CellOrder order), in blocks listed by the pattern's
// DataDeps, or outside the computed region (resolved by Boundary). Reads
// outside that contract panic, which is how the tests detect
// under-declared data regions. The same holds for the optional Row of a
// RowKernel, which is what the runtime calls when a kernel has one.
type Kernel[T any] interface {
	// Pattern returns the DAG Pattern Model of the recurrence, either
	// from the library or user defined.
	Pattern() dag.Pattern
	// Boundary supplies the value of a cell outside the computed region
	// (negative indices, beyond the matrix, or pattern holes such as the
	// lower triangle of a triangular pattern).
	Boundary(i, j int) T
	// Cell computes the recurrence at (i, j).
	Cell(v *matrix.View[T], i, j int) T
}

// RowKernel is an optional Kernel extension: the recurrence over a row
// segment, which is the unit the thread level computes in. Row computes
// cells (i, j0) .. (i, j0+len(out)-1) left to right into out, those cells'
// own storage in the sub-task's output block; it writes nothing else and
// reads everything else through the view, exactly as Cell may. The
// pattern's row order (dag.RowOrder) guarantees that what the segment
// depends on — the rows before it, the cells to its left — is computed. A
// kernel with O(1) work per cell gains most: the call and the view's block
// lookups are paid once per segment. It derives Cell from Row (a segment
// of one), so that there is still one recurrence; Cell stays required, the
// contract a kernel is checked against and all a simple kernel writes.
type RowKernel[T any] interface {
	Row(v *matrix.View[T], i, j0 int, out []T)
}

// cellRows is the RowKernel of a kernel that has none: Cell, cell by cell.
type cellRows[T any] struct{ Kernel[T] }

func (k cellRows[T]) Row(v *matrix.View[T], i, j0 int, out []T) {
	for t := range out {
		out[t] = k.Cell(v, i, j0+t)
	}
}

// SubBlockFill returns the function that computes one thread-level
// sub-block of kernel k, the only loop in which the runtime runs a
// recurrence: fill(v) visits v's window in the pattern's row order and has
// Row write each segment into the output block's own row — k's Row, or
// Cell behind an adapter built here, once per block. With
// emulate set it returns the cells' summed tune.CostModel weights (1 a
// cell without one), else 0. A call allocates nothing: the function keeps
// its state between calls, so each compute thread needs its own.
func SubBlockFill[T any](k Kernel[T], emulate bool) func(v *matrix.View[T]) (units float64) {
	pat := k.Pattern()
	rows, ok := any(k).(RowKernel[T])
	if !ok {
		rows = cellRows[T]{k}
	}
	cost, _ := any(k).(tune.CostModel)
	var v *matrix.View[T]
	var units float64
	segment := func(i, j0, j1 int) {
		b := v.Out()
		at := (i-b.Rect.Row0)*b.Rect.Cols + j0 - b.Rect.Col0
		rows.Row(v, i, j0, b.Cells[at:at+j1-j0:at+j1-j0])
		if !emulate {
			return
		}
		if cost == nil {
			units += float64(j1 - j0)
			return
		}
		for j := j0; j < j1; j++ {
			units += cost.CellCost(i, j)
		}
	}
	return func(view *matrix.View[T]) float64 {
		v, units = view, 0
		dag.RowOrder(pat, view.Window(), segment)
		return units
	}
}

// Problem bundles everything the runtime needs to execute one DP
// application.
type Problem[T any] struct {
	// Name identifies the problem in logs and stats.
	Name string
	// Size is the DP matrix extent.
	Size dag.Size
	// Kernel is the user recurrence.
	Kernel Kernel[T]
	// Codec serializes cells on the wire.
	Codec matrix.Codec[T]
}

// Check reports what keeps p from running: a missing kernel or codec, or
// an invalid size.
func (p Problem[T]) Check() error {
	if p.Kernel == nil || p.Codec == nil || !p.Size.Valid() {
		return fmt.Errorf("core: problem %q needs a kernel, a codec and a valid size (got %v)", p.Name, p.Size)
	}
	return nil
}

// Result of a run: the completed blocked matrix plus runtime statistics.
type Result[T any] struct {
	// Store holds every computed block at processor-level granularity
	// (the job engine's store; with ReclaimBlocks only the unread ones).
	Store matrix.BlockStore[T]
	// Stats aggregates the scheduling statistics of the run.
	Stats Stats
}

// Matrix assembles the result into a dense matrix. Cells outside the
// computed region (e.g. the lower triangle of a triangular pattern) are
// zero values.
func (r *Result[T]) Matrix() [][]T { return r.Store.Assemble() }
