// Command easyhps-bench regenerates the evaluation of the EasyHPS paper
// (Figures 13-17) on an emulated cluster, plus the ablations described in
// DESIGN.md. See EXPERIMENTS.md for recorded results and how to read them.
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
		swggLen  = flag.Int("swgg", 0, "SWGG sequence length (default 224; paper used 10000)")
		nussLen  = flag.Int("nussinov", 0, "Nussinov sequence length (default 224; paper used 10000)")
		grid     = flag.Int("grid", 0, "processor-level block-grid side (default 8; paper used 50)")
		tgrid    = flag.Int("tgrid", 0, "thread-level sub-block grid side (default 14; paper used 20)")
		work     = flag.Duration("work", 0, "emulated work per cell (default 500us)")
		latBase  = flag.Duration("latency", -1, "per-message interconnect latency (default 120us)")
		latPerKB = flag.Duration("latkb", -1, "per-KB interconnect cost (default 4us)")
		seed     = flag.Int64("seed", 0, "workload seed")
		reps     = flag.Int("reps", 1, "repetitions per measured run (median reported)")
		jitter   = flag.Float64("jitter", 0, "per-sub-task work variance fraction (default 0.3; negative disables)")
	)
	flag.Parse()

	o := bench.Options{
		SWGGLen:        *swggLen,
		NussinovLen:    *nussLen,
		GridSide:       *grid,
		ThreadGridSide: *tgrid,
		WorkDelay:      *work,
		Seed:           *seed,
		Reps:           *reps,
		Jitter:         *jitter,
	}
	if *latBase >= 0 || *latPerKB >= 0 {
		lm := comm.DefaultClusterLatency
		if *latBase >= 0 {
			lm.Base = *latBase
		}
		if *latPerKB >= 0 {
			lm.PerKB = *latPerKB
		}
		if lm.Zero() {
			lm.Base = time.Nanosecond // explicit "free" network
		}
		o.Latency = lm
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

	ranSomething := *verify
	switch *fig {
	case "":
	case "13":
		die(o.Fig13(ctx, w, *points))
		ranSomething = true
	case "14":
		die(o.Fig14(ctx, w, *points))
		ranSomething = true
	case "15":
		die(o.Fig15(ctx, w))
		ranSomething = true
	case "16":
		die(o.Fig16(ctx, w))
		ranSomething = true
	case "17":
		die(o.Fig17(ctx, w, *points))
		ranSomething = true
	case "all":
		die(o.Fig13(ctx, w, *points))
		die(o.Fig14(ctx, w, *points))
		die(o.Fig15(ctx, w))
		die(o.Fig16(ctx, w))
		die(o.Fig17(ctx, w, *points))
		ranSomething = true
	default:
		die(fmt.Errorf("unknown figure %q", *fig))
	}

	switch *ablate {
	case "":
	case "partition":
		die(o.AblatePartition(ctx, w))
		ranSomething = true
	case "latency":
		die(o.AblateLatency(ctx, w))
		ranSomething = true
	case "singlelevel":
		die(o.AblateSingleLevel(ctx, w))
		ranSomething = true
	case "idle":
		die(o.IdleWhileComputable(ctx, w))
		ranSomething = true
	case "delta":
		die(o.AblateDelta(ctx, w))
		ranSomething = true
	case "affinity":
		die(o.AblateAffinity(ctx, w))
		ranSomething = true
	case "all":
		die(o.AblatePartition(ctx, w))
		die(o.AblateLatency(ctx, w))
		die(o.AblateSingleLevel(ctx, w))
		die(o.AblateDelta(ctx, w))
		die(o.AblateAffinity(ctx, w))
		die(o.IdleWhileComputable(ctx, w))
		ranSomething = true
	default:
		die(fmt.Errorf("unknown ablation %q", *ablate))
	}

	if !ranSomething {
		flag.Usage()
		os.Exit(2)
	}
}
