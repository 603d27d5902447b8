// Command easyhps-launch runs one DP problem over real TCP: it listens for
// easyhps-worker processes, schedules the problem across them and prints
// the result. The problem is the job service's JobSpec for -app, -n and
// -seed, so its digest scopes -cache entries exactly as easyhps-run and
// easyhps-serve scope theirs: one -cache-dir serves all three.
//
// The master is a fleet (internal/fleet) running this one job: scheduling
// starts once -workers members have joined, workers may join and leave at
// any time after, liveness is tracked by heartbeats, a dead worker's tasks
// are reassigned, and -checkpoint makes completed tasks survive a master
// restart (see docs/CLUSTER.md). The job spec travels to each worker in the
// job's attach frame, so a worker is started with no problem flags at all.
//
// Example (three shells):
//
//	easyhps-launch -addr :9000 -workers 2 -app swgg -n 400 -checkpoint run.ckpt
//	easyhps-worker -addr 127.0.0.1:9000
//	easyhps-worker -addr 127.0.0.1:9000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":9000", "listen address")
		workers = flag.Int("workers", 2, "members required before scheduling starts")
		app     = flag.String("app", "swgg", "application: "+strings.Join(cli.Apps, ", "))
		n       = flag.Int("n", 400, "matrix side length")
		seed    = flag.Int64("seed", 1, "workload seed")
		proc    = flag.Int("proc", 0, "process_partition_size")
		thread  = flag.Int("thread", 0, "thread_partition_size")
		batch   = flag.Int("batch", 1, "max ready vertices per task message (1 = classic per-vertex protocol)")
		wait    = flag.Duration("wait", time.Minute, "how long to wait for workers")

		hb        = flag.Duration("hb", 250*time.Millisecond, "heartbeat interval, told to every worker in its welcome")
		hbMiss    = flag.Int("hb-miss", 3, "silent heartbeat intervals before a member is declared dead")
		ckpt      = flag.String("checkpoint", "", "checkpoint file (resumes from it when present)")
		speculate = flag.Bool("speculate", false, "dispatch speculative backups for straggling vertices (first result wins)")
		steal     = flag.Bool("steal", false, "at each control tick, steal queued backlog toward workers whose draw came back empty")
		auto      = flag.Bool("auto", false, "self-tune — speculation and stealing arm automatically and the batch/speculation knobs adjust online")

		cache         = flag.Bool("cache", false, "probe and fill the content-addressed result cache (keys scoped by the job's digest, as in easyhps-run and easyhps-serve)")
		cacheDir      = flag.String("cache-dir", "", "cache: persist entries to this directory, so a rerun of the same problem completes from cache")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 256<<20, "cache: LRU byte budget for block entries")
	)
	flag.Parse()

	job := server.JobSpec{Kernel: *app, N: *n, Seed: *seed}
	prob, report, err := cli.BuildSpec(job)
	fatal(err)
	var procPart, threadPart dag.Size
	if *proc > 0 {
		procPart = dag.Square(*proc)
	}
	if *thread > 0 {
		threadPart = dag.Square(*thread)
	}

	var store *cas.Store
	if *cache {
		store, err = cas.NewStore(cas.Options{Dir: *cacheDir, MaxBytes: *cacheMaxBytes})
		fatal(err)
	}

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
	fmt.Printf("master on %s (job %s); waiting for %d workers ...\n", f.Addr(), job.Digest(), *workers)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := runJob(ctx, f, prob, job.Request(procPart, threadPart), *workers, *wait, *ckpt)
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
}

// runJob waits up to wait for quorum members, then runs prob as the
// fleet's one job. The spec travels in req's attach frame, from which
// every worker builds the problem.
func runJob(ctx context.Context, f *fleet.Fleet[int32], prob core.Problem[int32], req fleet.JobRequest, quorum int, wait time.Duration, ckpt string) (*fleet.Result[int32], error) {
	joinCtx, cancel := context.WithTimeout(ctx, wait)
	err := f.Registry().WaitLive(joinCtx, quorum)
	cancel()
	if err != nil {
		return nil, err
	}
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
