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
	"repro/internal/trace"
)

// Fig13 reproduces Figure 13: SWGG elapsed time vs. total cores, deployed
// on 2-5 nodes. points bounds the number of core counts measured per node
// count (0 = the paper's full 11-point sweep).
func (o Options) Fig13(ctx context.Context, w io.Writer, points int) error {
	return o.figTimeVsCores(ctx, w, o.SWGGApp(), "Fig. 13: SWGG elapsed time vs cores", points)
}

// Fig14 reproduces Figure 14: the same sweep for Nussinov.
func (o Options) Fig14(ctx context.Context, w io.Writer, points int) error {
	return o.figTimeVsCores(ctx, w, o.NussinovApp(), "Fig. 14: Nussinov elapsed time vs cores", points)
}

func (o Options) figTimeVsCores(ctx context.Context, w io.Writer, app App, title string, points int) error {
	fprintf(w, "%s  (n=%d, grid=%dx%d, work=%v/cell, latency=%v+%v/KB)\n",
		title, app.Len, o.GridSide, o.GridSide, o.WorkDelay, o.Latency.Base, o.Latency.PerKB)
	fprintf(w, "%-8s %-8s %-10s %-12s %-10s\n", "nodes", "cores", "threads", "elapsed", "tasks")
	for x := 2; x <= 5; x++ {
		for _, y := range o.CoreCounts(x, points) {
			pt, err := o.Run(ctx, app, x, y, core.PolicyDynamic)
			if err != nil {
				return err
			}
			fprintf(w, "%-8d %-8d %-10d %-12v %-10d\n",
				x, y, (y-2*x+1)/(x-1), pt.Elapsed.Round(time.Millisecond), pt.Stats.Tasks)
		}
		fprintf(w, "\n")
	}
	return nil
}

// Fig15Cores are total core counts valid on every node count 2..5 under
// the Experiment_X_Y accounting (compute cores divide evenly).
var Fig15Cores = []int{13, 25, 37, 49}

// Fig15 reproduces Figure 15: at equal total cores, compare deployments on
// different node counts. The paper's observation: few cores -> fewer nodes
// win (less scheduling overhead, thread-level parallelism suffices); many
// cores -> more nodes win (a slave executes one sub-task at a time, so
// thread-level parallelism saturates at the slave-DAG width while
// processor-level parallelism keeps scaling).
func (o Options) Fig15(ctx context.Context, w io.Writer) error {
	for _, app := range o.Apps() {
		fprintf(w, "Fig. 15 (%s): elapsed time at equal core counts across node counts\n", app.Name)
		fprintf(w, "%-8s", "cores")
		for x := 2; x <= 5; x++ {
			fprintf(w, " %10s", fmt.Sprintf("%d nodes", x))
		}
		fprintf(w, " %10s\n", "best")
		for _, y := range Fig15Cores {
			fprintf(w, "%-8d", y)
			bestX, bestT := 0, time.Duration(1<<62)
			var row []string
			for x := 2; x <= 5; x++ {
				if _, err := o.Config(app, x, y, core.PolicyDynamic); err != nil {
					// Deployment impossible (e.g. 2 nodes cannot
					// host that many threads) — the paper's curves
					// have the same holes.
					row = append(row, "-")
					continue
				}
				pt, err := o.Run(ctx, app, x, y, core.PolicyDynamic)
				if err != nil {
					return err
				}
				row = append(row, pt.Elapsed.Round(time.Millisecond).String())
				if pt.Elapsed < bestT {
					bestX, bestT = x, pt.Elapsed
				}
			}
			for _, d := range row {
				fprintf(w, " %10s", d)
			}
			fprintf(w, " %10s\n", fmt.Sprintf("%d nodes", bestX))
		}
		fprintf(w, "\n")
	}
	return nil
}

// Fig16 reproduces Figure 16: elapsed time and speedup with the best node
// grouping per core count, against the virtual-time sequential baseline.
// The paper reports ~30x at 50 cores for SWGG and ~20x for Nussinov.
func (o Options) Fig16(ctx context.Context, w io.Writer) error {
	for _, app := range o.Apps() {
		seq := o.SequentialBaseline(app)
		fprintf(w, "Fig. 16 (%s): elapsed/speedup with optimal node grouping (T_seq=%v)\n",
			app.Name, seq.Round(time.Millisecond))
		fprintf(w, "%-8s %-8s %-12s %-8s\n", "cores", "nodes", "elapsed", "speedup")
		for _, y := range Fig15Cores {
			bestX, bestT := 0, time.Duration(1<<62)
			for x := 2; x <= 5; x++ {
				if _, err := o.Config(app, x, y, core.PolicyDynamic); err != nil {
					continue
				}
				pt, err := o.Run(ctx, app, x, y, core.PolicyDynamic)
				if err != nil {
					return err
				}
				if pt.Elapsed < bestT {
					bestX, bestT = x, pt.Elapsed
				}
			}
			fprintf(w, "%-8d %-8d %-12v %-8.1f\n",
				y, bestX, bestT.Round(time.Millisecond), float64(seq)/float64(bestT))
		}
		fprintf(w, "\n")
	}
	return nil
}

// Fig17 reproduces Figure 17: the BCW/EasyHPS runtime ratio on 2-5 nodes.
// Points above 1.00 mean the dynamic worker pool beats the static
// block-cyclic wavefront assignment. Because the host's timer overhead
// drifts over minutes, the two policies are measured interleaved
// (dynamic, BCW, dynamic, BCW, ...) and the per-policy medians are
// compared, so slow drift cancels out of the ratio.
func (o Options) Fig17(ctx context.Context, w io.Writer, points int) error {
	reps := o.Reps
	if reps < 3 {
		reps = 3
	}
	single := o
	single.Reps = 1
	for _, app := range o.Apps() {
		fprintf(w, "Fig. 17 (%s): BCW / EasyHPS runtime ratio (baseline 1.00, median of %d interleaved reps)\n", app.Name, reps)
		fprintf(w, "%-8s %-8s %-12s %-12s %-8s\n", "nodes", "cores", "easyhps", "bcw", "ratio")
		for x := 2; x <= 5; x++ {
			for _, y := range o.CoreCounts(x, points) {
				var dyn, bcw stats.Sample
				for r := 0; r < reps; r++ {
					d, err := single.Run(ctx, app, x, y, core.PolicyDynamic)
					if err != nil {
						return err
					}
					dyn.Add(d.Elapsed)
					b, err := single.Run(ctx, app, x, y, core.PolicyBlockCyclic)
					if err != nil {
						return err
					}
					bcw.Add(b.Elapsed)
				}
				fprintf(w, "%-8d %-8d %-12v %-12v %-8.2f\n",
					x, y,
					dyn.Median().Round(time.Millisecond), bcw.Median().Round(time.Millisecond),
					float64(bcw.Median())/float64(dyn.Median()))
			}
		}
		fprintf(w, "\n")
	}
	return nil
}

// AblatePartition sweeps the processor-level grid side at a fixed
// deployment, exposing the block-size trade-off between DAG width (load
// balance) and per-task overhead (messages, scheduling).
func (o Options) AblatePartition(ctx context.Context, w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 25
	fprintf(w, "Ablation: proc grid side sweep, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	fprintf(w, "%-10s %-10s %-12s %-10s %-10s\n", "grid", "tasks", "elapsed", "msgs", "bytes")
	for _, grid := range []int{4, 8, 16, 24, 40} {
		oo := o
		oo.GridSide = grid
		pt, err := oo.Run(ctx, app, x, y, core.PolicyDynamic)
		if err != nil {
			return err
		}
		fprintf(w, "%-10d %-10d %-12v %-10d %-10d\n",
			grid, pt.Stats.Tasks, pt.Elapsed.Round(time.Millisecond),
			pt.Stats.Messages, pt.Stats.PayloadBytes)
	}
	fprintf(w, "\n")
	return nil
}

// AblateLatency reruns the Fig. 15 crossover with a free interconnect: the
// node-count effects collapse when communication costs nothing.
func (o Options) AblateLatency(ctx context.Context, w io.Writer) error {
	app := o.SWGGApp()
	fprintf(w, "Ablation: interconnect latency on/off, SWGG n=%d, %d cores\n", app.Len, Fig15Cores[1])
	fprintf(w, "%-8s %-14s %-14s\n", "nodes", "with latency", "zero latency")
	for x := 2; x <= 5; x++ {
		if _, err := o.Config(app, x, Fig15Cores[1], core.PolicyDynamic); err != nil {
			fprintf(w, "%-8d %-14s %-14s\n", x, "-", "-")
			continue
		}
		with, err := o.Run(ctx, app, x, Fig15Cores[1], core.PolicyDynamic)
		if err != nil {
			return err
		}
		oo := o
		oo.Latency = comm.LatencyModel{Base: 1} // effectively free but non-zero to defeat defaulting
		without, err := oo.Run(ctx, app, x, Fig15Cores[1], core.PolicyDynamic)
		if err != nil {
			return err
		}
		fprintf(w, "%-8d %-14v %-14v\n", x,
			with.Elapsed.Round(time.Millisecond), without.Elapsed.Round(time.Millisecond))
	}
	fprintf(w, "\n")
	return nil
}

// AblateSingleLevel compares the multilevel deployment against single-level
// scheduling (thread partition = proc partition, so each sub-task is one
// sub-sub-task and thread-level parallelism disappears) at the same core
// budget.
func (o Options) AblateSingleLevel(ctx context.Context, w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 37
	fprintf(w, "Ablation: multilevel vs single-level, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	multi, err := o.Run(ctx, app, x, y, core.PolicyDynamic)
	if err != nil {
		return err
	}
	cfg, err := o.Config(app, x, y, core.PolicyDynamic)
	if err != nil {
		return err
	}
	cfg.ThreadPartition = cfg.ProcPartition // one sub-sub-task per sub-task
	res, err := core.RunContext(ctx, app.Problem(), cfg)
	if err != nil {
		return err
	}
	fprintf(w, "%-14s %-12v\n", "multilevel", multi.Elapsed.Round(time.Millisecond))
	fprintf(w, "%-14s %-12v\n\n", "single-level", res.Stats.Elapsed.Round(time.Millisecond))
	return nil
}

// AblateDelta compares full data-region shipping against delta shipping
// (slave-side block caching) on SWGG, whose 2D/1D data regions repeat the
// same row/column blocks across tasks: traffic should collapse.
func (o Options) AblateDelta(ctx context.Context, w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 25
	fprintf(w, "Ablation: delta shipping, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	fprintf(w, "%-10s %-12s %-14s %-14s %-10s\n", "mode", "elapsed", "payloadMB", "shipped", "skipped")
	for _, delta := range []bool{false, true} {
		cfg, err := o.Config(app, x, y, core.PolicyDynamic)
		if err != nil {
			return err
		}
		cfg.DeltaShipping = delta
		res, err := core.RunContext(ctx, app.Problem(), cfg)
		if err != nil {
			return err
		}
		mode := "full"
		if delta {
			mode = "delta"
		}
		fprintf(w, "%-10s %-12v %-14.1f %-14d %-10d\n",
			mode, res.Stats.Elapsed.Round(time.Millisecond),
			float64(res.Stats.PayloadBytes)/(1<<20),
			res.Stats.BlocksShipped, res.Stats.BlocksSkipped)
	}
	fprintf(w, "\n")
	return nil
}

// AblateAffinity compares the three master-side policies at equal
// resources: dynamic (paper), dynamic with delta shipping, and the
// locality-aware affinity policy. Payload traffic is the interesting
// column.
func (o Options) AblateAffinity(ctx context.Context, w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 25
	fprintf(w, "Ablation: scheduling policy vs traffic, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	fprintf(w, "%-16s %-12s %-12s %-12s %-10s\n", "policy", "elapsed", "payloadMB", "shipped", "skipped")
	for _, row := range []struct {
		name   string
		policy core.Policy
		delta  bool
	}{
		{"dynamic", core.PolicyDynamic, false},
		{"dynamic+delta", core.PolicyDynamic, true},
		{"affinity", core.PolicyAffinity, true},
	} {
		cfg, err := o.Config(app, x, y, row.policy)
		if err != nil {
			return err
		}
		cfg.DeltaShipping = row.delta
		res, err := core.RunContext(ctx, app.Problem(), cfg)
		if err != nil {
			return err
		}
		fprintf(w, "%-16s %-12v %-12.1f %-12d %-10d\n",
			row.name, res.Stats.Elapsed.Round(time.Millisecond),
			float64(res.Stats.PayloadBytes)/(1<<20),
			res.Stats.BlocksShipped, res.Stats.BlocksSkipped)
	}
	fprintf(w, "\n")
	return nil
}

// IdleWhileComputable measures the paper's qualitative claim behind
// Fig. 17 directly: under BCW there are moments with computable sub-tasks
// and idle workers, which "never happens" under the dynamic pool. It runs
// both policies with a trace recorder and reports the idle-while-computable
// worker-time at the processor level.
func (o Options) IdleWhileComputable(ctx context.Context, w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 5, 25
	fprintf(w, "Trace: idle-while-computable worker-time, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	for _, policy := range []core.Policy{core.PolicyDynamic, core.PolicyBlockCyclic} {
		cfg, err := o.Config(app, x, y, policy)
		if err != nil {
			return err
		}
		rec := trace.New()
		cfg.Trace = rec
		res, err := core.RunContext(ctx, app.Problem(), cfg)
		if err != nil {
			return err
		}
		s := rec.Summarize()
		fprintf(w, "%-10s elapsed=%-10v idleWhileComputable=%-12v utilization=%.2f\n",
			policy, res.Stats.Elapsed.Round(time.Millisecond),
			s.IdleWhileReady.Round(time.Millisecond), s.Utilization())
	}
	fprintf(w, "\n")
	return nil
}

// Verify checks, for a small instance of each app, that the parallel run
// reproduces the sequential matrix bit-for-bit — run before benchmarking.
func (o Options) Verify(ctx context.Context, w io.Writer) error {
	a := dp.RandomDNA(48, o.Seed)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, o.Seed+1)
	swgg := dp.NewSWGG(a, b)
	nuss := dp.NewNussinov(dp.RandomRNA(48, o.Seed+2))
	checks := []struct {
		name string
		want [][]int32
		prob core.Problem[int32]
	}{
		{"SWGG", swgg.Sequential(), swgg.Problem()},
		{"Nussinov", nuss.Sequential(), nuss.Problem()},
	}
	for _, c := range checks {
		cfg := core.Config{
			Slaves:          2,
			Threads:         3,
			ProcPartition:   dag.Square(8),
			ThreadPartition: dag.Square(3),
			RunTimeout:      2 * time.Minute,
		}
		res, err := core.RunContext(ctx, c.prob, cfg)
		if err != nil {
			return err
		}
		got := res.Matrix()
		for i := range c.want {
			for j := range c.want[i] {
				if got[i][j] != c.want[i][j] {
					return fmt.Errorf("bench: %s verification failed at (%d,%d): %d != %d", c.name, i, j, got[i][j], c.want[i][j])
				}
			}
		}
		fprintf(w, "verify %-10s OK (48x48 parallel == sequential)\n", c.name)
	}
	fprintf(w, "\n")
	return nil
}
