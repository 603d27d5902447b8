// Command easyhps-bench regenerates the evaluation of the EasyHPS paper
// (Figures 13-17) on the cluster simulator, in virtual time, plus the
// ablations described in DESIGN.md. See EXPERIMENTS.md for recorded results
// and how to read them. The output is a function of the flags alone.
//
// Usage:
//
//	easyhps-bench -fig all                # every figure, default scale
//	easyhps-bench -fig 13 -points 4       # Fig. 13 with 4 core counts per node count
//	easyhps-bench -fig 15 -swgg 400       # bigger workload
//	easyhps-bench -ablate partition       # block-size ablation
//	easyhps-bench -verify                 # parallel == sequential sanity check
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 13, 14, 15, 16, 17 or all")
		ablate   = flag.String("ablate", "", "ablation to run: partition, latency, singlelevel, delta, affinity, idle or all")
		verify   = flag.Bool("verify", false, "check parallel == sequential before benchmarking")
		points   = flag.Int("points", 4, "core counts per node count for figs 13/14/17 (0 = full 11-point sweep)")
		swggLen  = flag.Int("swgg", 0, "SWGG sequence length (default 160; paper used 10000)")
		nussLen  = flag.Int("nussinov", 0, "Nussinov sequence length (default 160; paper used 10000)")
		grid     = flag.Int("grid", 0, "processor-level block-grid side (default 8; paper used 50)")
		tgrid    = flag.Int("tgrid", 0, "thread-level sub-block grid side (default 10; paper used 20)")
		work     = flag.Duration("work", 0, "virtual work per cell of weight 1 (default 1.25ms)")
		latBase  = flag.Duration("latency", bench.DefaultClusterLatency.Base, "per-message interconnect latency")
		latPerKB = flag.Duration("latkb", bench.DefaultClusterLatency.PerKB, "per-KB interconnect cost")
		seed     = flag.Int64("seed", 0, "workload seed")
		jitter   = flag.Float64("jitter", 0, "per-block work variance fraction (default 0.3; negative disables)")
	)
	flag.Parse()

	o := bench.Options{
		SWGGLen:        *swggLen,
		NussinovLen:    *nussLen,
		GridSide:       *grid,
		ThreadGridSide: *tgrid,
		WorkDelay:      *work,
		Seed:           *seed,
		Jitter:         *jitter,
		Latency:        comm.LatencyModel{Base: *latBase, PerKB: *latPerKB},
	}
	if o.Latency.Zero() {
		o.Latency.Base = time.Nanosecond // a free wire, which WithDefaults would take for an unset one
	}
	o = o.WithDefaults()

	ctx, w := context.Background(), os.Stdout
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-bench:", err)
			os.Exit(1)
		}
	}

	if *verify {
		die(o.Verify(ctx, w))
	}

	type step struct {
		name string
		run  func(io.Writer) error
	}
	figs := []step{
		{"13", func(w io.Writer) error { return o.Fig13(w, *points) }},
		{"14", func(w io.Writer) error { return o.Fig14(w, *points) }},
		{"15", o.Fig15},
		{"16", o.Fig16},
		{"17", func(w io.Writer) error { return o.Fig17(w, *points) }},
	}
	ablations := []step{
		{"partition", o.AblatePartition},
		{"latency", o.AblateLatency},
		{"singlelevel", o.AblateSingleLevel},
		{"delta", o.AblateDelta},
		{"affinity", o.AblateAffinity},
		{"idle", o.IdleWhileComputable},
	}
	ranSomething := *verify
	for _, sel := range []struct {
		what, name string
		steps      []step
	}{{"figure", *fig, figs}, {"ablation", *ablate, ablations}} {
		if sel.name == "" {
			continue
		}
		ran := false
		for _, s := range sel.steps {
			if sel.name == "all" || sel.name == s.name {
				die(s.run(w))
				ran = true
			}
		}
		if !ran {
			die(fmt.Errorf("unknown %s %q", sel.what, sel.name))
		}
		ranSomething = true
	}

	if !ranSomething {
		flag.Usage()
		os.Exit(2)
	}
}
