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
)

// Fig13 reproduces Figure 13: SWGG elapsed time vs. total cores, deployed
// on 2-5 nodes. points bounds the number of core counts measured per node
// count (0 = the paper's full 11-point sweep).
func (o Options) Fig13(w io.Writer, points int) error {
	return o.figTimeVsCores(w, o.SWGGApp(), "Fig. 13: SWGG elapsed time vs cores", points)
}

// Fig14 reproduces Figure 14: the same sweep for Nussinov.
func (o Options) Fig14(w io.Writer, points int) error {
	return o.figTimeVsCores(w, o.NussinovApp(), "Fig. 14: Nussinov elapsed time vs cores", points)
}

func (o Options) figTimeVsCores(w io.Writer, app App, title string, points int) error {
	fprintf(w, "%s  (n=%d, grid=%dx%d, work=%v/cell, latency=%v+%v/KB)\n",
		title, app.Len, o.GridSide, o.GridSide, o.WorkDelay, o.Latency.Base, o.Latency.PerKB)
	fprintf(w, "%-8s %-8s %-10s %-12s %-10s\n", "nodes", "cores", "threads", "elapsed", "tasks")
	for x := 2; x <= 5; x++ {
		for _, y := range o.CoreCounts(x, points) {
			pt, err := o.Run(app, x, y, core.PolicyDynamic)
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
func (o Options) Fig15(w io.Writer) error {
	for _, app := range o.Apps() {
		fprintf(w, "Fig. 15 (%s): elapsed time at equal core counts across node counts\n", app.Name)
		fprintf(w, "%-8s", "cores")
		for x := 2; x <= 5; x++ {
			fprintf(w, " %10s", fmt.Sprintf("%d nodes", x))
		}
		fprintf(w, " %10s\n", "best")
		for _, y := range Fig15Cores {
			bestX, elapsed, err := o.best(app, y)
			if err != nil {
				return err
			}
			fprintf(w, "%-8d", y)
			for _, d := range elapsed {
				cell := "-"
				if d > 0 {
					cell = d.Round(time.Millisecond).String()
				}
				fprintf(w, " %10s", cell)
			}
			fprintf(w, " %10s\n", fmt.Sprintf("%d nodes", bestX))
		}
		fprintf(w, "\n")
	}
	return nil
}

// best runs y cores of app on each of 2-5 nodes that can host them and
// returns the fastest node count and each one's time (elapsed[x-2]; zero
// where the deployment is impossible, e.g. 2 nodes cannot host that many
// threads — the paper's curves have the same holes).
func (o Options) best(app App, y int) (bestX int, elapsed [4]time.Duration, err error) {
	for x := 2; x <= 5; x++ {
		if _, e := o.Config(app, x, y, core.PolicyDynamic); e != nil {
			continue
		}
		pt, err := o.Run(app, x, y, core.PolicyDynamic)
		if err != nil {
			return 0, elapsed, err
		}
		if elapsed[x-2] = pt.Elapsed; bestX == 0 || pt.Elapsed < elapsed[bestX-2] {
			bestX = x
		}
	}
	return bestX, elapsed, nil
}

// Fig16 reproduces Figure 16: elapsed time and speedup with the best node
// grouping per core count, against the virtual-time sequential baseline.
// The paper reports ~30x at 50 cores for SWGG and ~20x for Nussinov.
func (o Options) Fig16(w io.Writer) error {
	for _, app := range o.Apps() {
		seq := o.SequentialBaseline(app)
		fprintf(w, "Fig. 16 (%s): elapsed/speedup with optimal node grouping (T_seq=%v)\n",
			app.Name, seq.Round(time.Millisecond))
		fprintf(w, "%-8s %-8s %-12s %-8s\n", "cores", "nodes", "elapsed", "speedup")
		for _, y := range Fig15Cores {
			bestX, elapsed, err := o.best(app, y)
			if err != nil {
				return err
			}
			t := elapsed[bestX-2]
			fprintf(w, "%-8d %-8d %-12v %-8.1f\n", y, bestX, t.Round(time.Millisecond), float64(seq)/float64(t))
		}
		fprintf(w, "\n")
	}
	return nil
}

// Fig17 reproduces Figure 17: the BCW/EasyHPS runtime ratio on 2-5 nodes.
// Points above 1.00 mean the dynamic worker pool beats the static
// block-cyclic wavefront assignment.
func (o Options) Fig17(w io.Writer, points int) error {
	for _, app := range o.Apps() {
		fprintf(w, "Fig. 17 (%s): BCW / EasyHPS runtime ratio (baseline 1.00)\n", app.Name)
		fprintf(w, "%-8s %-8s %-12s %-12s %-8s\n", "nodes", "cores", "easyhps", "bcw", "ratio")
		for x := 2; x <= 5; x++ {
			for _, y := range o.CoreCounts(x, points) {
				dyn, err := o.Run(app, x, y, core.PolicyDynamic)
				if err != nil {
					return err
				}
				bcw, err := o.Run(app, x, y, core.PolicyBlockCyclic)
				if err != nil {
					return err
				}
				fprintf(w, "%-8d %-8d %-12v %-12v %-8.2f\n", x, y,
					dyn.Elapsed.Round(time.Millisecond), bcw.Elapsed.Round(time.Millisecond),
					float64(bcw.Elapsed)/float64(dyn.Elapsed))
			}
		}
		fprintf(w, "\n")
	}
	return nil
}

// AblatePartition sweeps the processor-level grid side at a fixed
// deployment, exposing the block-size trade-off between DAG width (load
// balance) and per-task overhead (messages, scheduling).
func (o Options) AblatePartition(w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 25
	fprintf(w, "Ablation: proc grid side sweep, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	fprintf(w, "%-10s %-10s %-12s %-10s %-10s\n", "grid", "tasks", "elapsed", "msgs", "bytes")
	for _, grid := range []int{4, 8, 16, 24, 40} {
		oo := o
		oo.GridSide = grid
		pt, err := oo.Run(app, x, y, core.PolicyDynamic)
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

// AblateLatency reruns the 25-core row of Fig. 15 with a free
// interconnect: what of the node-count effect is communication.
func (o Options) AblateLatency(w io.Writer) error {
	app := o.SWGGApp()
	fprintf(w, "Ablation: interconnect latency on/off, SWGG n=%d, %d cores\n", app.Len, Fig15Cores[1])
	fprintf(w, "%-8s %-14s %-14s\n", "nodes", "with latency", "zero latency")
	for x := 2; x <= 5; x++ {
		if _, err := o.Config(app, x, Fig15Cores[1], core.PolicyDynamic); err != nil {
			fprintf(w, "%-8d %-14s %-14s\n", x, "-", "-")
			continue
		}
		with, err := o.Run(app, x, Fig15Cores[1], core.PolicyDynamic)
		if err != nil {
			return err
		}
		oo := o
		oo.Latency = comm.LatencyModel{}
		without, err := oo.Run(app, x, Fig15Cores[1], core.PolicyDynamic)
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
func (o Options) AblateSingleLevel(w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 37
	fprintf(w, "Ablation: multilevel vs single-level, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	multi, err := o.Run(app, x, y, core.PolicyDynamic)
	if err != nil {
		return err
	}
	cfg, err := o.Config(app, x, y, core.PolicyDynamic)
	if err != nil {
		return err
	}
	cfg.ThreadPartition = cfg.ProcPartition // one sub-sub-task per sub-task
	single, err := o.simulate(app, cfg, false)
	if err != nil {
		return err
	}
	fprintf(w, "%-14s %-12v\n", "multilevel", multi.Elapsed.Round(time.Millisecond))
	fprintf(w, "%-14s %-12v\n\n", "single-level", single.Elapsed.Round(time.Millisecond))
	return nil
}

// AblateDelta compares full data-region shipping against delta shipping
// (slave-side block caching) on SWGG, whose 2D/1D data regions repeat the
// same row/column blocks across tasks: traffic should collapse.
func (o Options) AblateDelta(w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 25
	fprintf(w, "Ablation: delta shipping, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	fprintf(w, "%-10s %-12s %-14s %-14s %-10s\n", "mode", "elapsed", "payloadMB", "shipped", "skipped")
	for _, delta := range []bool{false, true} {
		cfg, err := o.Config(app, x, y, core.PolicyDynamic)
		if err != nil {
			return err
		}
		pt, err := o.simulate(app, cfg, delta)
		if err != nil {
			return err
		}
		mode := "full"
		if delta {
			mode = "delta"
		}
		fprintf(w, "%-10s %-12v %-14.1f %-14d %-10d\n",
			mode, pt.Elapsed.Round(time.Millisecond),
			float64(pt.Stats.PayloadBytes)/(1<<20),
			pt.Stats.BlocksShipped, pt.Stats.BlocksSkipped)
	}
	fprintf(w, "\n")
	return nil
}

// AblateAffinity compares the three master-side policies at equal
// resources: dynamic (paper), dynamic with delta shipping, and the
// locality-aware affinity policy. Payload traffic is the interesting
// column.
func (o Options) AblateAffinity(w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 4, 25
	fprintf(w, "Ablation: scheduling policy vs traffic, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	fprintf(w, "%-16s %-12s %-12s %-12s %-10s\n", "policy", "elapsed", "payloadMB", "shipped", "skipped")
	for _, row := range []struct {
		name   string
		policy core.Policy
		cached bool // a cached job ships keyed, an affinity job always
	}{
		{"dynamic", core.PolicyDynamic, false},
		{"dynamic+delta", core.PolicyDynamic, true},
		// Cached as well, so the last two rows differ in policy alone: a
		// cached job's probe pass hands the pool its newly computable
		// vertices in reverse, so a store alone moves the draw order.
		{"affinity", core.PolicyAffinity, true},
	} {
		cfg, err := o.Config(app, x, y, row.policy)
		if err != nil {
			return err
		}
		pt, err := o.simulate(app, cfg, row.cached)
		if err != nil {
			return err
		}
		fprintf(w, "%-16s %-12v %-12.1f %-12d %-10d\n",
			row.name, pt.Elapsed.Round(time.Millisecond),
			float64(pt.Stats.PayloadBytes)/(1<<20),
			pt.Stats.BlocksShipped, pt.Stats.BlocksSkipped)
	}
	fprintf(w, "\n")
	return nil
}

// IdleWhileComputable measures the paper's qualitative claim behind
// Fig. 17 directly: under BCW there are moments with computable sub-tasks
// and idle workers, which "never happens" under the dynamic pool. It runs
// both policies and reports, from each job's trace, the
// idle-while-computable worker-time at the processor level.
func (o Options) IdleWhileComputable(w io.Writer) error {
	app := o.SWGGApp()
	const x, y = 5, 25
	fprintf(w, "Trace: idle-while-computable worker-time, SWGG n=%d, Experiment_%d_%d\n", app.Len, x, y)
	for _, policy := range []core.Policy{core.PolicyDynamic, core.PolicyBlockCyclic} {
		pt, err := o.Run(app, x, y, policy)
		if err != nil {
			return err
		}
		fprintf(w, "%-10s elapsed=%-10v idleWhileComputable=%-12v utilization=%.2f\n",
			policy, pt.Elapsed.Round(time.Millisecond),
			pt.Trace.IdleWhileReady.Round(time.Millisecond), pt.Trace.Utilization())
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
