// Package core implements the EasyHPS runtime: the master part that
// schedules processor-level sub-tasks over slave nodes, the slave part that
// re-partitions each sub-task over compute threads, the dynamic worker
// pools at both levels, and the hierarchical timeout-based fault tolerance
// described in §V of the paper. The master is one driver (Driver) of
// internal/engine's scheduler over one source of members, its membership
// table (Registry): RunContext's in-process members (Local) and the workers
// of internal/fleet — every worker process is one.
package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/matrix"
)

// Kernel is the recurrence as the runtime computes it: the DAG Pattern
// Model, the boundary values, and the recurrence over a row segment, which
// is the unit the thread level computes in. A kernel whose recurrence is
// simplest stated per cell — the paper's user API (Table I) — writes a
// CellKernel and runs behind Cells.
//
// Row must be deterministic and must read, through the view, only cells
// that the pattern declares reachable: within the current block (already
// computed in the pattern's RowOrder), in blocks listed by the pattern's
// DataDeps, or outside the computed region (resolved by Boundary). Reads
// outside that contract panic, which is how the tests detect
// under-declared data regions.
type Kernel[T any] interface {
	// Pattern returns the DAG Pattern Model of the recurrence, either
	// from the library or user defined.
	Pattern() dag.Pattern
	// Boundary supplies the value of a cell outside the computed region
	// (negative indices, beyond the matrix, or pattern holes such as the
	// lower triangle of a triangular pattern).
	Boundary(i, j int) T
	// Row computes cells (i, j0) .. (i, j0+len(out)-1) left to right into
	// out, those cells' own storage in the sub-task's output block; it
	// writes nothing else and reads everything else through the view. The
	// pattern's row order guarantees that what the segment depends on —
	// the rows before it, the cells to its left — is computed. The call
	// and view lookups are paid once per segment, and a scan of O(n) cells
	// per cell sweeps each source row across the segment.
	Row(v *matrix.View[T], i, j0 int, out []T)
}

// CellKernel is the paper's per-cell user API: a Kernel's Pattern and
// Boundary, and the recurrence at one cell under the same read contract
// as Row. Cells turns it into a Kernel.
type CellKernel[T any] interface {
	Pattern() dag.Pattern
	Boundary(i, j int) T
	// Cell computes the recurrence at (i, j).
	Cell(v *matrix.View[T], i, j int) T
}

// Cells returns the Kernel that computes k's row segments cell by cell.
func Cells[T any](k CellKernel[T]) Kernel[T] { return cells[T]{k} }

type cells[T any] struct{ CellKernel[T] }

func (k cells[T]) Row(v *matrix.View[T], i, j0 int, out []T) {
	for t := range out {
		out[t] = k.Cell(v, i, j0+t)
	}
}

// SubBlockFill returns the function that computes one thread-level
// sub-block of kernel k, the only loop in which the runtime runs a
// recurrence: fill(v) visits v's window in the pattern's row order and has
// k's Row write each segment into the output block's own row. A call
// allocates nothing: the function keeps its state between calls, so each
// compute thread needs its own.
func SubBlockFill[T any](k Kernel[T]) func(v *matrix.View[T]) {
	pat := k.Pattern()
	var v *matrix.View[T]
	segment := func(i, j0, j1 int) {
		b := v.Out()
		at := (i-b.Rect.Row0)*b.Rect.Cols + j0 - b.Rect.Col0
		k.Row(v, i, j0, b.Cells[at:at+j1-j0:at+j1-j0])
	}
	return func(view *matrix.View[T]) {
		v = view
		pat.RowOrder(view.Window(), segment)
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
