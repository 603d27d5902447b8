// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 13-17) plus the ablations listed in DESIGN.md.
//
// The paper ran on Tianhe-1A nodes; this reproduction runs on one machine,
// so two substitutions scale the experiments down while preserving the
// scheduling behaviour (see DESIGN.md):
//
//   - problem sizes shrink but the processor-level block grid keeps the
//     paper's proportions, so DAG width and wavefront fill/drain behave
//     identically;
//   - computation weight is emulated with Config.WorkDelayPerCell (each
//     sub-sub-task sleeps in proportion to its cell count), so deployments
//     with many more simulated cores than physical cores still scale, and
//     communication cost is emulated with the transport latency model.
//
// An Experiment_X_Y run uses the paper's core accounting: Y total cores on
// X nodes = X processor-level scheduling cores + (X-1) thread-level
// scheduling cores + (Y-2X+1) compute cores spread over X-1 computing
// nodes.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/stats"
)

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
	// WorkDelay is the emulated computation weight per cell.
	WorkDelay time.Duration
	// Jitter is the per-sub-task work variance fraction (see
	// core.Config.WorkJitter). Negative disables; zero defaults to 0.3.
	Jitter float64
	// Latency is the emulated interconnect.
	Latency comm.LatencyModel
	// Seed drives workload generation.
	Seed int64
	// MaxThreads is the per-node compute-thread cap (paper: 11).
	MaxThreads int
	// Reps repeats every measured run and reports the median, smoothing
	// wall-clock noise on shared machines. Default 1.
	Reps int
}

// WithDefaults fills the scaled-down defaults. They are calibrated to the
// noisy ~1ms sleep resolution of a stock (virtualized) Linux box: each
// thread-level sub-sub-task carries 4 cells x 1.25ms = 5ms of emulated
// work, well above the timer floor, so sleeps overlap accurately and
// deployments of up to ~50 simulated cores scale on a single physical
// core. The processor-level grid is 8x8 and each sub-task re-partitions
// into 10x10 sub-sub-tasks, preserving the paper's two-level structure
// (50x50 and 20x20) at a tractable total runtime.
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
		o.Latency = comm.DefaultClusterLatency
	}
	if o.Seed == 0 {
		o.Seed = 20130520 // IPPS 2013
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 11
	}
	if o.Reps <= 0 {
		o.Reps = 1
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
	// Sequential runs the reference implementation and returns its
	// wall-clock time (real compute only; the harness adds the emulated
	// per-cell work for the virtual-time baseline).
	Sequential func() time.Duration
	// Cells is the number of computed cells (for virtual-time
	// accounting).
	Cells int
}

// SWGGApp builds the Smith-Waterman General Gap benchmark app.
func (o Options) SWGGApp() App {
	n := o.SWGGLen
	a := dp.RandomDNA(n, o.Seed)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, o.Seed+1)
	s := dp.NewSWGG(a, b)
	return App{
		Name:    "SWGG",
		Len:     n,
		Problem: s.Problem,
		Sequential: func() time.Duration {
			start := time.Now()
			_ = s.Sequential()
			return time.Since(start)
		},
		Cells: n * n,
	}
}

// NussinovApp builds the Nussinov benchmark app.
func (o Options) NussinovApp() App {
	n := o.NussinovLen
	nu := dp.NewNussinov(dp.RandomRNA(n, o.Seed+2))
	return App{
		Name:    "Nussinov",
		Len:     n,
		Problem: nu.Problem,
		Sequential: func() time.Duration {
			start := time.Now()
			_ = nu.Sequential()
			return time.Since(start)
		},
		Cells: n * (n + 1) / 2,
	}
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
	proc := (app.Len + o.GridSide - 1) / o.GridSide
	if proc < 1 {
		proc = 1
	}
	thread := (proc + o.ThreadGridSide - 1) / o.ThreadGridSide
	if thread < 1 {
		thread = 1
	}
	cfg.ProcPartition = dag.Square(proc)
	cfg.ThreadPartition = dag.Square(thread)
	cfg.Policy = policy
	cfg.Latency = o.Latency
	cfg.WorkDelayPerCell = o.WorkDelay
	cfg.WorkJitter = o.Jitter
	cfg.RunTimeout = 10 * time.Minute
	return cfg, nil
}

// Point is one measured run.
type Point struct {
	App     string
	Nodes   int // X: total nodes including the master
	Cores   int // Y: paper core accounting
	Policy  core.Policy
	Elapsed time.Duration
	Stats   core.Stats
}

// Run executes Experiment_X_Y, repeating Options.Reps times and keeping
// the median-elapsed repetition.
func (o Options) Run(ctx context.Context, app App, x, y int, policy core.Policy) (Point, error) {
	cfg, err := o.Config(app, x, y, policy)
	if err != nil {
		return Point{}, err
	}
	reps := o.Reps
	if reps < 1 {
		reps = 1
	}
	var sample stats.Sample
	points := make(map[time.Duration]Point, reps)
	for r := 0; r < reps; r++ {
		res, err := core.RunContext(ctx, app.Problem(), cfg)
		if err != nil {
			return Point{}, fmt.Errorf("bench: %s Experiment_%d_%d: %w", app.Name, x, y, err)
		}
		sample.Add(res.Stats.Elapsed)
		points[res.Stats.Elapsed] = Point{
			App: app.Name, Nodes: x, Cores: y, Policy: policy,
			Elapsed: res.Stats.Elapsed, Stats: res.Stats,
		}
	}
	return points[sample.Median()], nil
}

// SequentialBaseline returns the virtual-time sequential baseline of app:
// the measured wall-clock of the reference implementation plus the
// emulated per-cell work a single compute core would have to serialize.
func (o Options) SequentialBaseline(app App) time.Duration {
	return app.Sequential() + time.Duration(app.Cells)*o.WorkDelay
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
