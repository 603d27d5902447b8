// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 13-17) plus the ablations listed in DESIGN.md.
//
// The paper ran on Tianhe-1A nodes; this reproduction replays each
// deployment on the cluster simulator (internal/sim), which steps the
// shipped master driver in virtual time, so the figures are deterministic
// and independent of the host:
//
//   - problem sizes shrink but the processor-level block grid keeps the
//     paper's proportions, so DAG width and wavefront fill/drain behave
//     identically;
//   - a block's service time is the harness's cost model (service): the
//     kernel's tune.CostModel weight of each cell times WorkDelay times a
//     deterministic per-block jitter, summed over the block's thread-level
//     sub-DAG and run on the node's ct threads as the work/span bound
//     max(W/ct, S);
//   - each task and result frame costs Latency on the worker's timeline;
//     the master's own scheduling work costs nothing in virtual time.
//
// An Experiment_X_Y run uses the paper's core accounting: Y total cores on
// X nodes = X processor-level scheduling cores + (X-1) thread-level
// scheduling cores + (Y-2X+1) compute cores spread over X-1 computing
// nodes, the simulated workers.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cas"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tune"
)

// DefaultClusterLatency approximates a commodity cluster interconnect
// relative to the scaled-down workloads of the harness: a hundred-odd
// microseconds per message plus a bandwidth term. It is deliberately
// pessimistic compared to InfiniBand so that communication effects are
// visible at the reduced problem sizes (see DESIGN.md).
var DefaultClusterLatency = comm.LatencyModel{
	Base:  120 * time.Microsecond,
	PerKB: 4 * time.Microsecond,
}

// Options configures the harness.
type Options struct {
	// SWGGLen is the sequence length for the SWGG experiments
	// (paper: 10000).
	SWGGLen int
	// NussinovLen is the sequence length for the Nussinov experiments
	// (paper: 10000).
	NussinovLen int
	// GridSide is the processor-level block-grid side (paper: 10000/200
	// = 50).
	GridSide int
	// ThreadGridSide is the thread-level sub-block grid side within one
	// processor block (paper: 200/10 = 20).
	ThreadGridSide int
	// WorkDelay is the virtual computation time of a cell of weight 1.
	WorkDelay time.Duration
	// Jitter is the per-block work variance fraction: a block's work is
	// scaled by a factor drawn deterministically from [1-Jitter,
	// 1+Jitter). Negative disables; zero defaults to 0.3.
	Jitter float64
	// Latency is the interconnect.
	Latency comm.LatencyModel
	// Seed drives workload generation.
	Seed int64
	// MaxThreads is the per-node compute-thread cap (paper: 11).
	MaxThreads int
}

// WithDefaults fills the scaled-down defaults: an 8x8 processor-level
// grid whose blocks each re-partition into 10x10 sub-blocks, preserving
// the paper's two-level structure (50x50 and 20x20) at a size whose real
// compute the simulator runs in moments.
func (o Options) WithDefaults() Options {
	if o.SWGGLen <= 0 {
		o.SWGGLen = 160
	}
	if o.NussinovLen <= 0 {
		o.NussinovLen = 160
	}
	if o.GridSide <= 0 {
		o.GridSide = 8
	}
	if o.ThreadGridSide <= 0 {
		o.ThreadGridSide = 10
	}
	if o.WorkDelay <= 0 {
		o.WorkDelay = 1250 * time.Microsecond
	}
	if o.Jitter == 0 {
		o.Jitter = 0.3
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	if o.Latency.Zero() {
		o.Latency = DefaultClusterLatency
	}
	if o.Seed == 0 {
		o.Seed = 20130520 // IPPS 2013
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 11
	}
	return o
}

// App is one benchmark application.
type App struct {
	// Name labels the app in output ("SWGG", "Nussinov").
	Name string
	// Len is the matrix side length.
	Len int
	// Problem builds the runnable problem.
	Problem func() core.Problem[int32]
}

// SWGGApp builds the Smith-Waterman General Gap benchmark app.
func (o Options) SWGGApp() App {
	n := o.SWGGLen
	a := dp.RandomDNA(n, o.Seed)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, o.Seed+1)
	return App{Name: "SWGG", Len: n, Problem: dp.NewSWGG(a, b).Problem}
}

// NussinovApp builds the Nussinov benchmark app.
func (o Options) NussinovApp() App {
	n := o.NussinovLen
	return App{Name: "Nussinov", Len: n, Problem: dp.NewNussinov(dp.RandomRNA(n, o.Seed+2)).Problem}
}

// Apps returns both evaluation applications.
func (o Options) Apps() []App { return []App{o.SWGGApp(), o.NussinovApp()} }

// Config builds the runtime configuration of Experiment_X_Y for app.
func (o Options) Config(app App, x, y int, policy core.Policy) (core.Config, error) {
	cfg, err := core.ConfigForCores(x, y)
	if err != nil {
		return cfg, err
	}
	if cfg.Threads > o.MaxThreads {
		return cfg, fmt.Errorf("bench: Experiment_%d_%d needs %d threads/node, cap is %d", x, y, cfg.Threads, o.MaxThreads)
	}
	cfg.ProcPartition, cfg.ThreadPartition = o.partitions(app)
	cfg.Policy = policy
	return cfg, nil
}

// partitions are app's two block sizes: GridSide blocks a side, each
// ThreadGridSide sub-blocks a side.
func (o Options) partitions(app App) (proc, thread dag.Size) {
	side := max((app.Len+o.GridSide-1)/o.GridSide, 1)
	return dag.Square(side), dag.Square(max((side+o.ThreadGridSide-1)/o.ThreadGridSide, 1))
}

// Point is one simulated run.
type Point struct {
	Elapsed time.Duration // virtual makespan
	Stats   core.Stats
	Trace   trace.Summary
}

// Run replays Experiment_X_Y of app under policy on the simulator.
func (o Options) Run(app App, x, y int, policy core.Policy) (Point, error) {
	cfg, err := o.Config(app, x, y, policy)
	if err != nil {
		return Point{}, err
	}
	return o.simulate(app, cfg, false)
}

// simulate runs one job of app on a simulated cluster deployed as cfg:
// cfg.Slaves workers, each block priced by the cost model on cfg.Threads
// threads, each frame by Latency. A cached job gets a cache key on a fresh
// store: like an affinity job, it ships against its workers' known-sets.
func (o Options) simulate(app App, cfg core.Config, cached bool) (Point, error) {
	p := app.Problem()
	opts := sim.Options{Workers: cfg.Slaves, Seed: o.Seed, Latency: o.Latency}
	spec := sim.JobSpec{Name: app.Name, Problem: p, Proc: cfg.ProcPartition, Policy: cfg.Policy, Service: o.service(p, cfg)}
	if cached {
		opts.Cache, _ = cas.NewStore(cas.Options{}) // no directory: nothing to fail
		spec.CacheKey = app.Name
	}
	c := sim.New(opts)
	j, err := c.Submit(0, spec)
	if err == nil {
		err = c.Run()
	}
	if err == nil {
		err = j.Err()
	}
	if err != nil {
		return Point{}, fmt.Errorf("bench: %s Experiment_%d_%d: %w", app.Name, cfg.Slaves+1, cfg.Cores(), err)
	}
	return Point{Elapsed: j.Makespan(), Stats: j.RunStats(), Trace: j.Summary()}, nil
}

// service is the cost model of p deployed as cfg: the virtual time one
// block takes on a node's cfg.Threads threads. Each sub-block of the
// block's thread-level sub-DAG weighs WorkDelay times the summed
// tune.CostModel weights of the cells it computes (1 a cell without a cost
// model) times the block's jitter factor; the block takes max(W/threads,
// S), W the sub-blocks' total and S the heaviest chain through the
// sub-DAG — the work/span bound of a greedy schedule, and W on one thread.
func (o Options) service(p core.Problem[int32], cfg core.Config) func(dag.Rect) time.Duration {
	pat := p.Kernel.Pattern()
	cost, _ := p.Kernel.(tune.CostModel)
	proc := dag.NewGeometry(dag.Rect{Rows: p.Size.Rows, Cols: p.Size.Cols}, cfg.ProcPartition)
	var g dag.Graph
	return func(r dag.Rect) time.Duration {
		id := proc.ID(dag.Pos{Row: r.Row0 / cfg.ProcPartition.Rows, Col: r.Col0 / cfg.ProcPartition.Cols})
		scale := float64(o.WorkDelay) * jitterFactor(id, o.Jitter)
		_ = g.Rebuild(pat, dag.NewGeometry(r, cfg.ThreadPartition)) // a library pattern's: it cannot fail
		pending := make([]int32, len(g.Verts))
		done := make([]float64, len(g.Verts)) // a sub-block's start, then its finish
		for v := range g.Verts {
			pending[v] = g.Verts[v].PreCnt
		}
		var work, span float64
		for ready := g.Roots(); len(ready) > 0; ready = ready[1:] {
			v := ready[0]
			w := 0.0
			pat.RowOrder(g.Geom.Rect(g.Verts[v].Pos), func(i, j0, j1 int) {
				for j := j0; j < j1; j++ {
					if cost == nil {
						w++
					} else {
						w += cost.CellCost(i, j)
					}
				}
			})
			w *= scale
			work, done[v] = work+w, done[v]+w
			span = max(span, done[v])
			for _, s := range g.Verts[v].Post {
				done[s] = max(done[s], done[v])
				if pending[s]--; pending[s] == 0 {
					ready = append(ready, s)
				}
			}
		}
		return time.Duration(max(work/float64(cfg.Threads), span))
	}
}

// jitterFactor returns a deterministic multiplier in [1-amp, 1+amp) keyed
// by the processor-level block (splitmix64 finalizer). Keying at block
// granularity models content-dependent block cost — real DP blocks differ
// in branch behaviour, cache footprint and node background load — which is
// the variance a static schedule cannot adapt to. A block's sub-blocks
// share its factor.
func jitterFactor(proc int32, amp float64) float64 {
	if amp <= 0 {
		return 1
	}
	h := uint64(uint32(proc)) + 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	u := float64(h%(1<<20))/float64(1<<19) - 1 // [-1, 1)
	return 1 + amp*u
}

// SequentialBaseline returns the virtual-time sequential baseline of app:
// the cost model of every block of its processor-level grid on one thread,
// with no wire.
func (o Options) SequentialBaseline(app App) time.Duration {
	cfg := core.Config{Threads: 1}
	cfg.ProcPartition, cfg.ThreadPartition = o.partitions(app)
	p := app.Problem()
	svc := o.service(p, cfg)
	g := dag.Build(p.Kernel.Pattern(), dag.NewGeometry(dag.Rect{Rows: p.Size.Rows, Cols: p.Size.Cols}, cfg.ProcPartition))
	var t time.Duration
	for _, v := range g.Existing() {
		t += svc(g.Geom.Rect(g.Vertex(v).Pos))
	}
	return t
}

// CoreCounts returns the paper's Experiment_X_Y core range for x nodes:
// Y = 2x-1 + ct*(x-1) for ct = 1..MaxThreads, optionally thinned to at
// most points entries to bound harness runtime.
func (o Options) CoreCounts(x, points int) []int {
	var all []int
	for ct := 1; ct <= o.MaxThreads; ct++ {
		all = append(all, 2*x-1+ct*(x-1))
	}
	if points <= 0 || points >= len(all) {
		return all
	}
	if points == 1 {
		return all[len(all)-1:]
	}
	out := make([]int, 0, points)
	for k := 0; k < points; k++ {
		out = append(out, all[k*(len(all)-1)/(points-1)])
	}
	return out
}

// fprintf writes formatted output, ignoring errors (harness output only).
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
