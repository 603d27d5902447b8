package core

import (
	"fmt"

	"repro/internal/cas"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// TaskRunner executes one job's processor-level sub-tasks: decode the
// shipped data region, run the thread level over the block (computeBlock,
// on the calling goroutine and Threads-1 helpers), and encode the result.
// Every worker, Worker.Serve's or a simulated one, runs its tasks through
// one per job, from one goroutine; the benchmark replay drives one directly.
type TaskRunner[T any] struct {
	p      Problem[T]
	cfg    Config
	geom   dag.Geometry
	faults *faultState
	ctrs   *counters

	// seen, when set, is the worker's content-addressed block cache for
	// the keyed wire format: whole blocks shipped and computed outputs
	// are recorded under their content keys, and reference records
	// resolve against it. Shared across a process's runners and only touched
	// from the goroutine that calls Run, so it needs no lock.
	seen    map[[32]byte]*matrix.Block[T]
	resolve func([32]byte) (*matrix.Block[T], bool) // the decoder's hooks into seen
	record  func([32]byte, *matrix.Block[T])
	level   *slaveLevel[T] // the thread level, kept between Runs (nil: build one)
}

// NewTaskRunner validates the problem and configuration (defaults applied
// as in a full run; Slaves is irrelevant here and forced valid, and of
// Faults the thread-level ones apply) and prepares the geometry.
func NewTaskRunner[T any](p Problem[T], cfg Config) (*TaskRunner[T], error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	cfg.Slaves = max(cfg.Slaves, 1)
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if !cfg.ProcPartition.Valid() {
		cfg.ProcPartition = dag.DefaultPartition(p.Size)
	}
	if !cfg.ThreadPartition.Valid() {
		cfg.ThreadPartition = dag.Size{Rows: (cfg.ProcPartition.Rows + 3) / 4, Cols: (cfg.ProcPartition.Cols + 3) / 4}
	}
	return &TaskRunner[T]{p: p, cfg: cfg, geom: dag.MatrixGeometry(p.Size, cfg.ProcPartition), faults: newFaultState(cfg.Faults), ctrs: &counters{}}, nil
}

// NumTasks returns how many processor-level sub-tasks the partitioned
// problem has (grid cells, holes included).
func (r *TaskRunner[T]) NumTasks() int { return r.geom.Grid.Cells() }

// SetBlockCache hands the runner a content-addressed block map, shared
// with the process's other runners, enabling the keyed wire format: a
// task payload in that format records the whole blocks it ships and
// resolves its reference records against the map, and the computed output
// is recorded under its content key so the master can send a reference the
// next time any job needs an identical block. The caller owns the map's
// lifetime and must confine it to the goroutine calling Run.
func (r *TaskRunner[T]) SetBlockCache(seen map[[32]byte]*matrix.Block[T]) {
	r.seen = seen
	r.resolve = func(k [32]byte) (*matrix.Block[T], bool) {
		b, ok := seen[k]
		return b, ok
	}
	// Whole blocks only: the master references nothing else, and a
	// region aliasing its task payload would keep all of it alive.
	r.record = func(k [32]byte, b *matrix.Block[T]) {
		if r.geom.IsBlock(b.Rect) {
			seen[k] = b
		}
	}
}

// Run executes vertex with the given encoded data region and returns the
// encoded output block.
func (r *TaskRunner[T]) Run(vertex int32, payload []byte) ([]byte, error) {
	if vertex < 0 || int(vertex) >= r.NumTasks() {
		return nil, fmt.Errorf("core: task vertex %d outside grid %v", vertex, r.geom.Grid)
	}
	inputs, keyed, err := matrix.DecodeBlocksAny(r.p.Codec, payload, r.resolve, r.record)
	if err != nil {
		return nil, fmt.Errorf("core: decoding data region of vertex %d: %w", vertex, err)
	}
	out := computeBlock(r, r.geom.Rect(r.geom.PosOf(vertex)), inputs, vertex)
	encoded, err := matrix.EncodeBlocks(r.p.Codec, []*matrix.Block[T]{out})
	if err == nil && keyed && r.seen != nil {
		// A keyed task means the master tracks this worker's holdings by
		// content key; mirror its bookkeeping by recording the output.
		r.seen[[32]byte(cas.PayloadKey(encoded))] = out
	}
	return encoded, err
}
