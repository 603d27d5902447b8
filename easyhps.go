// Package easyhps is a Go reproduction of EasyHPS, the multilevel hybrid
// parallel runtime system for dynamic programming of Du et al. (IPPS
// 2013).
//
// A dynamic-programming algorithm is described to the runtime as a Kernel:
// a DAG Pattern Model (which cells exist and how blocks of cells depend on
// each other), a boundary function, and the per-cell recurrence. The
// runtime partitions the DP matrix twice — processor-level blocks
// scheduled over slave nodes by the master worker pool, and thread-level
// sub-blocks scheduled over compute goroutines by each slave worker pool —
// and drives both levels with the DAG Data Driven Model: a sub-task
// becomes computable when all its precursor blocks are complete, and idle
// workers pull computable sub-tasks dynamically. Timeout-based fault
// tolerance redistributes lost sub-tasks at the processor level and
// re-pushes them at the thread level.
//
// Quick start:
//
//	s := easyhps.NewSWGG(seqA, seqB)
//	res, err := easyhps.Run(s.Problem(), easyhps.Config{
//		Slaves:          4,
//		Threads:         4,
//		ProcPartition:   easyhps.Square(200),
//		ThreadPartition: easyhps.Square(10),
//	})
//	score, i, j := easyhps.BestLocal(res.Matrix())
//
// Run computes on the goroutines of one process, at the kernel's own
// speed; a multi-process cluster is a fleet (internal/fleet). The package
// is a thin facade over the implementation packages: internal/dag (DAG
// Data Driven Model), internal/comm (message passing), internal/sched
// (worker pools), internal/core (the runtime) and internal/dp (DP
// applications).
package easyhps

import (
	"context"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// Re-exported geometry types.
type (
	// Pos is a block-grid position.
	Pos = dag.Pos
	// Size is a rows-by-columns extent.
	Size = dag.Size
	// Rect is a half-open cell region.
	Rect = dag.Rect
	// Geometry is one level of partitioning.
	Geometry = dag.Geometry
	// Pattern is a DAG Pattern Model.
	Pattern = dag.Pattern
	// CustomPattern is a user-defined DAG Pattern Model.
	CustomPattern = dag.Custom
)

// Square returns an n-by-n Size.
func Square(n int) Size { return dag.Square(n) }

// NewGeometry partitions a cell region into blocks.
func NewGeometry(region Rect, block Size) Geometry { return dag.NewGeometry(region, block) }

// MatrixGeometry partitions a full n-sized matrix into blocks.
func MatrixGeometry(n, block Size) Geometry { return dag.MatrixGeometry(n, block) }

// Library patterns.
var (
	// PatternWavefront is the 2D/0D pattern (edit distance, LCS,
	// Needleman-Wunsch).
	PatternWavefront Pattern = dag.Wavefront{}
	// PatternRowColumn is the 2D/1D pattern of SWGG.
	PatternRowColumn Pattern = dag.RowColumn{}
	// PatternTriangular is the 2D/1D upper-triangular pattern of
	// Nussinov and matrix-chain recurrences.
	PatternTriangular Pattern = dag.Triangular{}
	// PatternDominance is the 2D/2D pattern of Algorithm 4.3.
	PatternDominance Pattern = dag.Dominance{}
	// PatternRowOnly is the previous-row pattern (knapsack).
	PatternRowOnly Pattern = dag.RowOnly{}
)

// LookupPattern retrieves a pattern from the DAG Pattern Model library.
func LookupPattern(name string) (Pattern, bool) { return dag.Lookup(name) }

// RegisterPattern adds a user-defined pattern to the library.
func RegisterPattern(p Pattern) { dag.Register(p) }

// ValidatePattern checks the model invariants of a (custom) pattern over a
// concrete geometry (dag.Validate): acyclicity, data-dependency coverage by
// the topological order, a row order that covers each computed cell of
// every block once in non-empty segments inside the block and, for a
// pattern that declares data regions, that each is a non-empty part of its
// dependency.
func ValidatePattern(p Pattern, g Geometry) error { return dag.Validate(p, g) }

// Runtime types.
type (
	// Config describes a deployment (nodes, threads, partition sizes,
	// scheduling policy, timeouts, fault injection).
	Config = core.Config
	// Policy selects dynamic (EasyHPS) or static (BCW) scheduling.
	Policy = core.Policy
	// FaultPlan injects failures for fault-tolerance testing.
	FaultPlan = core.FaultPlan
	// SubTaskID identifies a thread-level sub-sub-task.
	SubTaskID = core.SubTaskID
	// Stats aggregates run statistics.
	Stats = core.Stats
	// TraceRecorder records scheduling events for load-balance analysis.
	TraceRecorder = trace.Recorder
)

// Scheduling policies.
const (
	// PolicyDynamic is the EasyHPS dynamic worker pool.
	PolicyDynamic = core.PolicyDynamic
	// PolicyBlockCyclic is the static block-cyclic wavefront baseline.
	PolicyBlockCyclic = core.PolicyBlockCyclic
	// PolicyAffinity is the locality-aware dynamic pool; its run ships
	// against the slaves' known-sets, cached or not.
	PolicyAffinity = core.PolicyAffinity
)

// NewTrace creates a scheduling-event recorder to put into Config.Trace.
func NewTrace() *TraceRecorder { return trace.New() }

// Problem and kernel plumbing for int32 cells, the common case. Other
// cell types can use the internal packages directly through the same
// generic API.
type (
	// Kernel32 is a DP kernel over int32 cells, the paper's per-cell user
	// API: Pattern, Boundary and Cell(v *View32, i, j int) int32.
	// NewProblem32 runs it through core.Cells, which computes a row
	// segment cell by cell.
	Kernel32 = core.CellKernel[int32]
	// Problem32 is a runnable DP problem over int32 cells.
	Problem32 = core.Problem[int32]
	// Result32 is the outcome of running a Problem32.
	Result32 = core.Result[int32]
	// View32 is the cell-access window passed to Kernel32.Cell. Get(i, j)
	// reads one cell; a recurrence that scans a row or a column asks for
	// runs — consecutive cells as a slice of the block holding them — and
	// loops over raw memory, one block lookup per run:
	//
	//	for c := 0; c < j; { // cells (i, 0) .. (i, j-1)
	//		run := v.Row(i, c, j-c)
	//		for t, h := range run { // run[t] is cell (i, c+t)
	//			...
	//		}
	//		c += len(run)
	//	}
	//
	// Band(i, j, w, n) is the same downwards: up to n rows of the w-cell
	// segment at (i, j) in one block, row t at cells[t*stride:][:w], and m
	// the rows it holds; a column run is a band of width one. A kernel
	// reads only the cells it asked for and never writes through a run:
	// the slice aliases a block sibling threads are still filling.
	View32 = matrix.View[int32]
)

// Run executes a problem on an in-process cluster: the master driver and
// cfg.Slaves in-process members of its registry, each with cfg.Threads
// compute goroutines, computing at the kernel's own speed. (The paper's
// figures, which model a cluster's compute and wire cost, replay on the
// simulator: cmd/easyhps-bench.)
func Run(p Problem32, cfg Config) (*Result32, error) {
	return core.RunContext(context.Background(), p, cfg)
}

// RunContext is Run with cancellation: cancelling ctx stops the master
// from scheduling further sub-tasks and returns ctx's error once the
// in-flight sub-tasks drain.
func RunContext(ctx context.Context, p Problem32, cfg Config) (*Result32, error) {
	return core.RunContext(ctx, p, cfg)
}

// NewProblem32 assembles a Problem32 from a per-cell kernel.
func NewProblem32(name string, size Size, k Kernel32) Problem32 {
	return core.Problem[int32]{Name: name, Size: size, Kernel: core.Cells(k), Codec: matrix.BinaryCodec[int32]{}}
}

// DP applications.
type (
	// SWGG is Smith-Waterman with general gap penalties.
	SWGG = dp.SWGG
	// Nussinov is RNA secondary-structure prediction.
	Nussinov = dp.Nussinov
	// EditDistance is Levenshtein distance.
	EditDistance = dp.EditDistance
	// NeedlemanWunsch is global alignment with linear gaps.
	NeedlemanWunsch = dp.NeedlemanWunsch
	// LCS is longest common subsequence.
	LCS = dp.LCS
	// MatrixChain is optimal matrix-chain parenthesization.
	MatrixChain = dp.MatrixChain
	// Knapsack is 0/1 knapsack.
	Knapsack = dp.Knapsack
	// Alignment is a gapped alignment recovered by traceback.
	Alignment = dp.Alignment
)

// Application constructors and helpers, re-exported.
var (
	NewSWGG         = dp.NewSWGG
	NewNussinov     = dp.NewNussinov
	NewEditDistance = dp.NewEditDistance
	NewNW           = dp.NewNeedlemanWunsch
	NewLCS          = dp.NewLCS
	NewMatrixChain  = dp.NewMatrixChain
	NewKnapsack     = dp.NewKnapsack
	BestLocal       = dp.BestLocal
	PairCount       = dp.PairCount
	RandomDNA       = dp.RandomDNA
	RandomRNA       = dp.RandomRNA
	RandomSeq       = dp.RandomSeq
	MutateSeq       = dp.MutateSeq
)
