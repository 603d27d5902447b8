// Command easyhps-run executes one DP application on an in-process
// EasyHPS cluster and prints the application-level result
// (alignment, structure, distance, ...) plus runtime statistics.
//
// Usage:
//
//	easyhps-run -app swgg -n 400 -slaves 3 -threads 4
//	easyhps-run -app nussinov -n 200 -policy bcw
//	easyhps-run -app matrixchain -n 300
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/seqio"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	var (
		app     = flag.String("app", "swgg", "application: "+strings.Join(cli.Apps, ", ")+" (the job service's kernels) or matrixchain")
		n       = flag.Int("n", 400, "matrix side length (sequence length / item count)")
		seed    = flag.Int64("seed", 1, "workload seed")
		slaves  = flag.Int("slaves", 3, "slave computing nodes")
		threads = flag.Int("threads", 4, "compute goroutines per slave")
		proc    = flag.Int("proc", 0, "process_partition_size (default n/8)")
		thread  = flag.Int("thread", 0, "thread_partition_size (default proc/4)")
		policy  = flag.String("policy", "dynamic", "scheduling policy: dynamic or bcw")
		batch   = flag.Int("batch", 1, "max ready vertices per task message (1 = classic per-vertex protocol)")
		spec    = flag.Bool("speculate", false, "dispatch speculative backups for straggling sub-tasks (first result wins)")
		steal   = flag.Bool("steal", false, "rebalance queued batch backlog toward starved slaves")
		auto    = flag.Bool("auto", false, "self-tune: enable speculation and stealing, pick the partition from the kernel's cost model, and adjust batch/speculation thresholds online (explicit -proc/-batch/... remain the starting point; off under -policy bcw)")
		verbose = flag.Bool("v", false, "print runtime statistics")
		gantt   = flag.Bool("gantt", false, "print a per-slave execution timeline")
		fasta   = flag.String("fasta", "", "run -app on the first two records of this FASTA file instead of generated inputs (editdist, lcs, needleman, swgg; nussinov folds the first)")

		cache         = flag.Bool("cache", false, "probe and fill the content-addressed result cache; with -cache-dir a rerun of the same problem completes from cache")
		cacheDir      = flag.String("cache-dir", "", "cache: persist entries to this directory (empty = memory only)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 256<<20, "cache: LRU byte budget for block entries")
	)
	flag.Parse()

	cfg := core.Config{
		Slaves:     *slaves,
		Threads:    *threads,
		Batch:      *batch,
		Speculate:  *spec,
		Steal:      *steal,
		Auto:       *auto,
		RunTimeout: 15 * time.Minute,
	}
	if *proc > 0 {
		cfg.ProcPartition = dag.Square(*proc)
	}
	if *thread > 0 {
		cfg.ThreadPartition = dag.Square(*thread)
	}
	switch *policy {
	case "dynamic":
		cfg.Policy = core.PolicyDynamic
	case "bcw":
		cfg.Policy = core.PolicyBlockCyclic
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	var rec *trace.Recorder
	if *gantt {
		rec = trace.New()
		cfg.Trace = rec
	}

	job := server.JobSpec{Kernel: *app, N: *n, Seed: *seed}
	if *fasta != "" {
		recs, err := seqio.ReadFile(*fasta)
		fatal(err)
		if len(recs) < 2 {
			fatal(fmt.Errorf("need two FASTA records, got %d", len(recs)))
		}
		fmt.Printf("%s vs %s\n", recs[0].ID, recs[1].ID)
		job = server.JobSpec{Kernel: *app, SeqA: string(recs[0].Seq), SeqB: string(recs[1].Seq)}
	}

	if *cache {
		store, err := cas.NewStore(cas.Options{Dir: *cacheDir, MaxBytes: *cacheMaxBytes})
		fatal(err)
		// The job service's digest, which covers a FASTA run's sequences:
		// one -cache-dir serves easyhps-run, easyhps-launch and
		// easyhps-serve alike.
		cfg.Cache = store
		cfg.CacheKey = job.Digest()
	}

	if *app == "matrixchain" {
		runMatrixChain(*n, *seed, cfg, *verbose)
		return
	}

	prob, report, err := cli.BuildSpec(job)
	fatal(err)
	res, err := core.RunContext(context.Background(), prob, cfg)
	fatal(err)
	fmt.Printf("%s on %d slaves x %d threads (%s policy): %v\n",
		prob.Name, *slaves, *threads, *policy, res.Stats.Elapsed.Round(time.Millisecond))
	report(os.Stdout, res.Matrix())
	if *verbose {
		fmt.Println(res.Stats)
	}
	if rec != nil {
		rec.Gantt(os.Stdout, 96)
	}
}

// runMatrixChain handles the int64-celled application, demonstrating the
// generic runtime beyond the int32 facade.
func runMatrixChain(n int, seed int64, cfg core.Config, verbose bool) {
	m := dp.NewMatrixChain(n, 2, 100, seed)
	res, err := core.RunContext(context.Background(), m.Problem(), cfg)
	fatal(err)
	got := res.Matrix()
	fmt.Printf("matrixchain-%d: optimal multiplication cost %d (%v)\n",
		n, got[0][n-1], res.Stats.Elapsed.Round(time.Millisecond))
	if verbose {
		fmt.Println(res.Stats)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "easyhps-run:", err)
		os.Exit(1)
	}
}
