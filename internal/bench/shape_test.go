package bench

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
)

// The shape claims of EXPERIMENTS.md's Summary, at the scale and seed the
// recorded tables use (Options{}.WithDefaults()). The simulator runs in
// virtual time, so each claim is a deterministic fact about the shipped
// scheduler under the harness's cost model, not a measurement.

func run(t *testing.T, o Options, app App, x, y int, policy core.Policy) Point {
	t.Helper()
	pt, err := o.Run(app, x, y, policy)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// best is o.best, failing t on an error.
func best(t *testing.T, o Options, app App, y int) (nodes int, elapsed time.Duration) {
	t.Helper()
	x, times, err := o.best(app, y)
	if err != nil {
		t.Fatal(err)
	}
	return x, times[x-2]
}

// Figs. 13-14: on every node count the elapsed time never rises with the
// core count, and it falls steeply from one thread a node to four.
func TestShapeTimeFallsWithCores(t *testing.T) {
	o := Options{}.WithDefaults()
	for _, app := range o.Apps() {
		for x := 2; x <= 5; x++ {
			var times []time.Duration // by threads a node, from one
			for _, y := range o.CoreCounts(x, 0) {
				pt := run(t, o, app, x, y, core.PolicyDynamic)
				if k := len(times); k > 0 && pt.Elapsed > times[k-1] {
					t.Errorf("%s on %d nodes: %d cores take %v, more than the %v of fewer", app.Name, x, y, pt.Elapsed, times[k-1])
				}
				times = append(times, pt.Elapsed)
			}
			if 2*times[3] > times[0] {
				t.Errorf("%s on %d nodes: four threads a node (%v) not twice as fast as one (%v)", app.Name, x, times[3], times[0])
			}
		}
	}
}

// Fig. 15: the best node count grows with the core budget — fewer nodes
// win at 13 cores, five at 37 and more.
func TestShapeFig15Crossover(t *testing.T) {
	o := Options{}.WithDefaults()
	for _, app := range o.Apps() {
		var nodes []int
		for _, y := range Fig15Cores {
			x, _ := best(t, o, app, y)
			nodes = append(nodes, x)
		}
		for k := 1; k < len(nodes); k++ {
			if nodes[k] < nodes[k-1] {
				t.Errorf("%s: best node counts %v over %v cores fall somewhere", app.Name, nodes, Fig15Cores)
			}
		}
		if nodes[0] >= 5 || nodes[2] != 5 {
			t.Errorf("%s: best node counts %v over %v cores, want fewer than 5 at 13 and 5 at 37", app.Name, nodes, Fig15Cores)
		}
	}
}

// Fig. 16: the speedup of the best grouping over the sequential baseline
// never falls as cores are added, and passes 10 at 37 cores.
func TestShapeFig16Speedup(t *testing.T) {
	o := Options{}.WithDefaults()
	for _, app := range o.Apps() {
		seq := o.SequentialBaseline(app)
		prev := 0.0
		for _, y := range Fig15Cores {
			_, elapsed := best(t, o, app, y)
			s := float64(seq) / float64(elapsed)
			if s < prev {
				t.Errorf("%s: speedup %.1f at %d cores, below the %.1f of fewer", app.Name, s, y, prev)
			}
			if y == 37 && s < 10 {
				t.Errorf("%s: speedup %.1f at 37 cores, want above 10", app.Name, s)
			}
			prev = s
		}
	}
}

// Fig. 17: the BCW / EasyHPS runtime ratio is at least 1.00 at most
// points. (Not at all of them: Nussinov on 4-5 nodes reads below, see
// EXPERIMENTS.md.)
func TestShapeFig17BCWRatio(t *testing.T) {
	o := Options{}.WithDefaults()
	above, points := 0, 0
	for _, app := range o.Apps() {
		for x := 2; x <= 5; x++ {
			for _, y := range o.CoreCounts(x, 4) {
				dyn := run(t, o, app, x, y, core.PolicyDynamic)
				bcw := run(t, o, app, x, y, core.PolicyBlockCyclic)
				if bcw.Elapsed >= dyn.Elapsed {
					above++
				}
				points++
			}
		}
	}
	if 2*above <= points {
		t.Fatalf("BCW / EasyHPS >= 1.00 at %d of %d points, want most", above, points)
	}
}

// Ablations: collapsing the thread level at the same core budget is
// slower; delta shipping cuts the blocks shipped; BCW leaves workers idle
// next to computable work for longer than the dynamic pool does.
func TestShapeAblations(t *testing.T) {
	o := Options{}.WithDefaults()
	app := o.SWGGApp()

	multi := run(t, o, app, 4, 37, core.PolicyDynamic)
	cfg, _ := o.Config(app, 4, 37, core.PolicyDynamic)
	cfg.ThreadPartition = cfg.ProcPartition
	single, err := o.simulate(app, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if 2*multi.Elapsed >= single.Elapsed {
		t.Errorf("multilevel %v is not twice as fast as single-level %v", multi.Elapsed, single.Elapsed)
	}

	cfg, _ = o.Config(app, 4, 25, core.PolicyDynamic)
	full, err := o.simulate(app, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := o.simulate(app, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if 2*delta.Stats.BlocksShipped >= full.Stats.BlocksShipped || delta.Stats.PayloadBytes >= full.Stats.PayloadBytes {
		t.Errorf("delta shipped %d blocks (%d bytes), full %d (%d): want under half the blocks",
			delta.Stats.BlocksShipped, delta.Stats.PayloadBytes, full.Stats.BlocksShipped, full.Stats.PayloadBytes)
	}

	dyn := run(t, o, app, 5, 25, core.PolicyDynamic)
	bcw := run(t, o, app, 5, 25, core.PolicyBlockCyclic)
	if bcw.Trace.IdleWhileReady <= dyn.Trace.IdleWhileReady {
		t.Errorf("BCW idles next to computable work for %v, the dynamic pool %v: want BCW longer",
			bcw.Trace.IdleWhileReady, dyn.Trace.IdleWhileReady)
	}
}

// One seed, one output: the figures and ablations print byte-identical
// tables on every run.
func TestTablesDeterministic(t *testing.T) {
	o := Options{}.WithDefaults()
	tables := func() string {
		var b bytes.Buffer
		for _, err := range []error{o.Fig17(&b, 2), o.AblatePartition(&b), o.AblateAffinity(&b), o.IdleWhileComputable(&b)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if a, b := tables(), tables(); a != b {
		t.Fatalf("two runs printed different tables:\n%s\n---\n%s", a, b)
	}
}
