// Command easyhps-launch runs the EasyHPS master over real TCP: it listens
// for easyhps-worker processes, schedules the DP problem across them, and
// prints the result.
//
// In fixed mode (-workers N) the run starts once exactly N ranks have
// joined. The join handshake carries a problem-spec digest, so a worker
// started with mismatched -app/-n/-seed/-proc/-thread flags is rejected
// with a diagnostic instead of corrupting the run.
//
// In elastic mode (-elastic) the master is a membership service instead of
// a rendezvous — a fleet (internal/fleet) running this one job: workers
// join and leave at any time, liveness is tracked by heartbeats, a dead
// worker's tasks are reassigned, and -checkpoint makes completed tasks
// survive a master restart (see docs/CLUSTER.md). The problem spec travels
// to each worker with the job, so a worker started with mismatched flags
// is admitted, refuses the job before computing anything and exits with a
// diagnostic naming both specs; the master reassigns what it was sent.
//
// Example (three shells, elastic):
//
//	easyhps-launch -elastic -addr :9000 -min-workers 2 -app swgg -n 400 -checkpoint run.ckpt
//	easyhps-worker -elastic -addr 127.0.0.1:9000 -app swgg -n 400
//	easyhps-worker -elastic -addr 127.0.0.1:9000 -app swgg -n 400
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/cas"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fleet"
)

func main() {
	var (
		addr    = flag.String("addr", ":9000", "listen address")
		workers = flag.Int("workers", 2, "fixed mode: number of worker processes to wait for")
		app     = flag.String("app", "swgg", "application (see easyhps-run)")
		n       = flag.Int("n", 400, "matrix side length")
		seed    = flag.Int64("seed", 1, "workload seed")
		proc    = flag.Int("proc", 0, "process_partition_size")
		thread  = flag.Int("thread", 0, "thread_partition_size")
		batch   = flag.Int("batch", 1, "max ready vertices per task message (1 = classic per-vertex protocol)")
		wait    = flag.Duration("wait", time.Minute, "how long to wait for workers")

		elastic    = flag.Bool("elastic", false, "run an elastic cluster master (workers join/leave freely)")
		minWorkers = flag.Int("min-workers", 1, "elastic: members required before scheduling starts")
		hb         = flag.Duration("hb", 250*time.Millisecond, "elastic: heartbeat interval")
		hbMiss     = flag.Int("hb-miss", 3, "elastic: silent heartbeat intervals before a member is declared dead")
		ckpt       = flag.String("checkpoint", "", "elastic: checkpoint file (resumes from it when present)")
		speculate  = flag.Bool("speculate", false, "elastic: dispatch speculative backups for straggling vertices (first result wins)")
		steal      = flag.Bool("steal", false, "elastic: steal queued backlog for workers that announce hunger (pair with worker -steal)")
		auto       = flag.Bool("auto", false, "elastic: self-tune — speculation and stealing arm automatically and the batch/speculation knobs adjust online (pair with worker -steal)")

		cache         = flag.Bool("cache", false, "elastic: probe and fill the content-addressed result cache (keys scoped by the problem-spec digest)")
		cacheDir      = flag.String("cache-dir", "", "cache: persist entries to this directory, so a rerun of the same problem completes from cache")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 256<<20, "cache: LRU byte budget for block entries")
	)
	flag.Parse()

	prob, report, err := cli.Build(*app, *n, *seed)
	fatal(err)

	spec := cluster.Spec{App: *app, N: *n, Seed: *seed}
	if *proc > 0 {
		spec.Proc = dag.Square(*proc)
	}
	if *thread > 0 {
		spec.Thread = dag.Square(*thread)
	}

	var store *cas.Store
	if *cache {
		var err error
		store, err = cas.NewStore(cas.Options{Dir: *cacheDir, MaxBytes: *cacheMaxBytes})
		fatal(err)
	}

	if *elastic {
		// An elastic cluster is a fleet with one job: wait for the quorum,
		// submit, dismiss the workers.
		f, err := fleet.New[int32](fleet.Options{
			Addr:              *addr,
			HeartbeatInterval: *hb,
			HeartbeatMiss:     *hbMiss,
			Batch:             *batch,
			Speculate:         *speculate,
			Steal:             *steal,
			Auto:              *auto,
			Cache:             store,
		})
		fatal(err)
		fmt.Printf("elastic master on %s (spec %s); waiting for %d workers ...\n", f.Addr(), spec.Digest(), *minWorkers)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		res, err := runElastic(ctx, f, prob, spec, *minWorkers, *wait, *ckpt)
		if err == nil {
			// Membership belongs to the fleet, not the job; read it before
			// Close dismisses the workers.
			res.Stats.Joins, res.Stats.Leaves, res.Stats.Deaths, res.Stats.LeasesRevoked, res.Stats.Reassigned = f.Registry().MembershipCounts()
		}
		f.Close()
		if err != nil && *ckpt != "" {
			fmt.Fprintf(os.Stderr, "easyhps-launch: %v\nprogress is checkpointed in %s; rerun to resume\n", err, *ckpt)
			os.Exit(1)
		}
		fatal(err)
		fmt.Printf("done in %v\n", res.Stats.Elapsed.Round(time.Millisecond))
		report(os.Stdout, res.Store.Assemble())
		fmt.Println(res.Stats)
		return
	}

	fmt.Printf("waiting for %d workers on %s ...\n", *workers, *addr)
	tr, err := comm.ListenMasterOpts(*addr, *workers, *wait, comm.TCPOptions{Digest: spec.Digest()})
	fatal(err)
	defer tr.Close()
	fmt.Println("cluster assembled; scheduling", prob.Name)

	cfg := core.Config{Threads: 1, RunTimeout: 15 * time.Minute, Batch: *batch}
	if *proc > 0 {
		cfg.ProcPartition = dag.Square(*proc)
	}
	if *thread > 0 {
		cfg.ThreadPartition = dag.Square(*thread)
	}
	if store != nil {
		cfg.Cache = store
		cfg.CacheKey = spec.Digest()
	}
	res, err := core.RunMaster(prob, cfg, tr)
	fatal(err)
	fmt.Printf("done in %v\n", res.Stats.Elapsed.Round(time.Millisecond))
	report(os.Stdout, res.Matrix())
	fmt.Println(res.Stats)
}

// runElastic waits up to wait for minWorkers members, then runs prob as
// the fleet's one job. The spec travels in the attach frame, where every
// worker checks it against the flags it was started with.
func runElastic(ctx context.Context, f *fleet.Fleet[int32], prob core.Problem[int32], spec cluster.Spec, minWorkers int, wait time.Duration, ckpt string) (*fleet.Result[int32], error) {
	joinCtx, cancel := context.WithTimeout(ctx, wait)
	err := f.Registry().WaitLive(joinCtx, minWorkers)
	cancel()
	if err != nil {
		return nil, err
	}
	req := fleet.SpecRequest(spec)
	req.Timeout = 15 * time.Minute
	req.CheckpointPath = ckpt
	return f.Run(ctx, prob, req)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "easyhps-launch:", err)
		os.Exit(1)
	}
}
