package bench

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// tinyOpts keeps the harness's smoke tests small: minimal grids.
func tinyOpts() Options {
	return Options{
		SWGGLen:        48,
		NussinovLen:    48,
		GridSide:       4,
		ThreadGridSide: 3,
		Seed:           7,
	}.WithDefaults()
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.SWGGLen == 0 || o.NussinovLen == 0 || o.GridSide == 0 ||
		o.ThreadGridSide == 0 || o.WorkDelay == 0 || o.Latency.Zero() ||
		o.Seed == 0 || o.MaxThreads == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestCoreCounts(t *testing.T) {
	o := Options{MaxThreads: 11}.WithDefaults()
	// Paper ranges: X=2 -> 4..14, X=5 -> 13..53.
	all2 := o.CoreCounts(2, 0)
	if len(all2) != 11 || all2[0] != 4 || all2[10] != 14 {
		t.Fatalf("CoreCounts(2) = %v", all2)
	}
	all5 := o.CoreCounts(5, 0)
	if all5[0] != 13 || all5[10] != 53 {
		t.Fatalf("CoreCounts(5) = %v", all5)
	}
	thin := o.CoreCounts(2, 4)
	if len(thin) != 4 || thin[0] != 4 || thin[3] != 14 {
		t.Fatalf("thinned CoreCounts = %v", thin)
	}
}

func TestConfigCoreAccounting(t *testing.T) {
	o := tinyOpts()
	app := o.SWGGApp()
	cfg, err := o.Config(app, 3, 9, core.PolicyDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cores() != 9 {
		t.Fatalf("Cores = %d, want 9", cfg.Cores())
	}
	if cfg.Slaves != 2 || cfg.Threads != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}
	// Thread cap enforced.
	if _, err := o.Config(app, 2, 100, core.PolicyDynamic); err == nil {
		t.Fatal("thread cap not enforced")
	}
}

func TestRunExperimentBothApps(t *testing.T) {
	o := tinyOpts()
	for _, app := range o.Apps() {
		pt, err := o.Run(app, 2, 6, core.PolicyDynamic)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if pt.Stats.Tasks == 0 || pt.Elapsed <= 0 {
			t.Fatalf("%s: empty measurement %+v", app.Name, pt)
		}
	}
}

func TestRunBothPolicies(t *testing.T) {
	o := tinyOpts()
	app := o.SWGGApp()
	for _, pol := range []core.Policy{core.PolicyDynamic, core.PolicyBlockCyclic} {
		if _, err := o.Run(app, 3, 9, pol); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestVerifyPasses(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyOpts().Verify(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SWGG") || !strings.Contains(buf.String(), "Nussinov") {
		t.Fatalf("verify output incomplete: %q", buf.String())
	}
}

// The sequential baseline is the cost model on one thread: without jitter,
// WorkDelay times every computed cell's CellCost; with it, within the
// jitter's band of that.
func TestSequentialBaselineIncludesVirtualWork(t *testing.T) {
	o := tinyOpts()
	o.WorkDelay, o.Jitter = time.Millisecond, 0
	app := o.SWGGApp()
	s := app.Problem().Kernel.(*dp.SWGG)
	var weight float64
	for i := 0; i < app.Len; i++ {
		for j := 0; j < app.Len; j++ {
			weight += s.CellCost(i, j)
		}
	}
	want := weight * float64(time.Millisecond)
	if got := float64(o.SequentialBaseline(app)); math.Abs(got-want) > float64(app.Len*app.Len) {
		t.Fatalf("baseline %v, want %v: the weighted cells at 1ms", time.Duration(got), time.Duration(want))
	}
	o.Jitter = 0.3
	if got := float64(o.SequentialBaseline(app)); got < 0.7*want || got > 1.3*want {
		t.Fatalf("jittered baseline %v outside ±30%% of %v", time.Duration(got), time.Duration(want))
	}
}

// On one thread a block is its whole work; on many, the heaviest chain of
// its thread-level sub-DAG bounds it from below, so a wavefront block of
// k x k uniform sub-blocks takes 2k-1 of them however many threads run it.
func TestServiceWorkSpanBound(t *testing.T) {
	o := Options{WorkDelay: time.Microsecond, Jitter: -1}.WithDefaults()
	e := dp.NewEditDistance(dp.RandomDNA(40, 1), dp.RandomDNA(40, 2)) // no cost model: 1 a cell
	r := dag.Rect{Rows: 40, Cols: 40}
	for _, c := range []struct {
		threads int
		want    time.Duration
	}{
		{1, 1600 * time.Microsecond}, // W
		{2, 800 * time.Microsecond},  // W/2 > S = 7 sub-blocks of 100 cells
		{8, 700 * time.Microsecond},  // S
	} {
		cfg := core.Config{Threads: c.threads, ProcPartition: dag.Square(40), ThreadPartition: dag.Square(10)}
		if got := o.service(e.Problem(), cfg)(r); got != c.want {
			t.Errorf("%d threads: %v, want %v", c.threads, got, c.want)
		}
	}
}

func TestJitterFactorDeterministicAndBounded(t *testing.T) {
	const amp = 0.3
	var sum float64
	for proc := int32(0); proc < 512; proc++ {
		f1 := jitterFactor(proc, amp)
		if f1 < 1-amp || f1 >= 1+amp {
			t.Fatalf("factor %v outside [%v, %v)", f1, 1-amp, 1+amp)
		}
		sum += f1
	}
	// The mean over many blocks should be close to 1 (unbiased total work).
	if mean := sum / 512; math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean factor %v deviates from 1", mean)
	}
	// Distinct blocks should not all share a factor.
	if jitterFactor(1, amp) == jitterFactor(2, amp) &&
		jitterFactor(2, amp) == jitterFactor(3, amp) {
		t.Fatal("jitter factors look constant across blocks")
	}
}

func TestJitterFactorDisabled(t *testing.T) {
	if jitterFactor(5, 0) != 1 || jitterFactor(5, -1) != 1 {
		t.Fatal("amp <= 0 must disable jitter")
	}
}

func TestFigureFunctionsRun(t *testing.T) {
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.Fig15(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 15") || !strings.Contains(out, "best") {
		t.Fatalf("Fig15 output malformed:\n%s", out)
	}
}

func TestIdleWhileComputableReportsBoth(t *testing.T) {
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.IdleWhileComputable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dynamic") || !strings.Contains(out, "bcw") {
		t.Fatalf("trace output missing policies:\n%s", out)
	}
}

func TestFig13OutputShape(t *testing.T) {
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.Fig13(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 13") {
		t.Fatalf("missing title:\n%s", out)
	}
	// 4 node counts x 2 core counts = 8 data rows.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 0 && line[0] >= '2' && line[0] <= '5' {
			rows++
		}
	}
	if rows != 8 {
		t.Fatalf("data rows = %d, want 8:\n%s", rows, out)
	}
}

func TestFig16OutputShape(t *testing.T) {
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.Fig16(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "T_seq") {
		t.Fatalf("fig16 output malformed:\n%s", out)
	}
}

func TestFig17OutputShape(t *testing.T) {
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.Fig17(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ratio") {
		t.Fatalf("fig17 output malformed:\n%s", buf.String())
	}
}

func TestAblationsRun(t *testing.T) {
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.AblateSingleLevel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.AblateDelta(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.AblateAffinity(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"single-level", "delta", "affinity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}
