package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// tinyOpts keeps harness self-tests fast: no emulated work or latency,
// minimal grids.
func tinyOpts() Options {
	return Options{
		SWGGLen:        48,
		NussinovLen:    48,
		GridSide:       4,
		ThreadGridSide: 3,
		WorkDelay:      time.Nanosecond,
		Latency:        comm.LatencyModel{Base: time.Nanosecond},
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
		pt, err := o.Run(context.Background(), app, 2, 6, core.PolicyDynamic)
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
		if _, err := o.Run(context.Background(), app, 3, 9, pol); err != nil {
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

func TestSequentialBaselineIncludesVirtualWork(t *testing.T) {
	o := tinyOpts()
	o.WorkDelay = time.Millisecond
	app := o.SWGGApp()
	if got := o.SequentialBaseline(app); got < time.Duration(app.Cells)*time.Millisecond {
		t.Fatalf("baseline %v below virtual work floor", got)
	}
}

func TestFigureFunctionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.Fig15(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 15") || !strings.Contains(out, "best") {
		t.Fatalf("Fig15 output malformed:\n%s", out)
	}
}

func TestIdleWhileComputableReportsBoth(t *testing.T) {
	if testing.Short() {
		t.Skip("trace smoke test")
	}
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.IdleWhileComputable(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dynamic") || !strings.Contains(out, "bcw") {
		t.Fatalf("trace output missing policies:\n%s", out)
	}
}

func TestFig13OutputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.Fig13(context.Background(), &buf, 2); err != nil {
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
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.Fig16(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "T_seq") {
		t.Fatalf("fig16 output malformed:\n%s", out)
	}
}

func TestFig17OutputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	o := tinyOpts()
	o.Reps = 3 // interleave minimum
	var buf bytes.Buffer
	if err := o.Fig17(context.Background(), &buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ratio") {
		t.Fatalf("fig17 output malformed:\n%s", buf.String())
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke test")
	}
	o := tinyOpts()
	var buf bytes.Buffer
	if err := o.AblateSingleLevel(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if err := o.AblateDelta(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if err := o.AblateAffinity(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"single-level", "delta", "affinity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}
