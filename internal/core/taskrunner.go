package core

import (
	"fmt"
	"slices"

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

	held  *Attached[T]   // the worker's holdings, for the keyed wire format
	job   int32          // the job r computes, as held knows it
	level *slaveLevel[T] // the thread level, kept between Runs (nil: build one)
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

// output is a block a worker computed for job, kept unnamed (Attached).
type output[T any] struct {
	job int32
	b   *matrix.Block[T]
}

var testHookHash = func([]byte) {} // sees every payload a worker hashes; tests count them

// resolve hands back the block a reference in a task of r's job names: one
// named before, else the job's one output at the reference's rect, named
// without a hash — the master hashes every result at commit, and names a
// worker's block only once it accepted that worker's result for it, or
// shipped the block whole, which named it here; another route to the same
// key recomputed the same bytes (kernels are deterministic). Any other
// output at the rect, another job's or one of several of the job's, is
// checked: named only if its bytes hash to the key.
func (r *TaskRunner[T]) resolve(ref matrix.BlockRef) (*matrix.Block[T], bool) {
	c := r.held
	if c == nil {
		return nil, false
	}
	if b, ok := c.named[ref.Key]; ok {
		return b, true
	}
	outs := c.unnamed[ref.Rect]
	mine := func(o output[T]) bool { return o.job == r.job }
	i := slices.IndexFunc(outs, mine)
	if i < 0 || slices.ContainsFunc(outs[i+1:], mine) {
		i = slices.IndexFunc(outs, func(o output[T]) bool {
			p, _ := matrix.EncodeBlocks(r.p.Codec, []*matrix.Block[T]{o.b}) // encoded once already, by Run
			testHookHash(p)
			return cas.PayloadKey(p) == ref.Key
		})
	}
	if i < 0 {
		return nil, false
	}
	c.named[ref.Key] = outs[i].b
	c.unnamed[ref.Rect] = slices.Delete(outs, i, i+1)
	return c.named[ref.Key], true
}

// record names a whole block a task shipped. The master references nothing
// else, and a region aliasing its task payload would keep all of it alive.
func (r *TaskRunner[T]) record(k [32]byte, b *matrix.Block[T]) {
	if r.held != nil && r.geom.IsBlock(b.Rect) {
		r.held.named[k] = b
	}
}

// Run executes vertex with the given encoded data region and returns the
// encoded output block.
func (r *TaskRunner[T]) Run(vertex int32, payload []byte) ([]byte, error) {
	if vertex < 0 || int(vertex) >= r.NumTasks() {
		return nil, fmt.Errorf("core: task vertex %d outside grid %v", vertex, r.geom.Grid)
	}
	inputs, keyed, err := matrix.DecodeTask(r.p.Codec, payload, r.resolve, r.record)
	if err != nil {
		return nil, fmt.Errorf("core: decoding data region of vertex %d: %w", vertex, err)
	}
	out := computeBlock(r, r.geom.Rect(r.geom.PosOf(vertex)), inputs, vertex)
	encoded, err := matrix.EncodeBlocks(r.p.Codec, []*matrix.Block[T]{out})
	if err == nil && keyed && r.held != nil {
		// A keyed task means the master tracks this worker's holdings:
		// keep the output until a reference names it.
		r.held.unnamed[out.Rect] = append(r.held.unnamed[out.Rect], output[T]{r.job, out})
	}
	return encoded, err
}
