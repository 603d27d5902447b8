// Command easyhps-serve runs the multi-tenant DP job service: a
// long-running HTTP server that runs every DP job on one long-lived worker
// pool, whose fair-share policy interleaves the admitted jobs by weight
// and priority. /metrics carries per-job labelled series and the pool's
// autoscaling signals (queue depth, hunger rate, deficit), and every job
// has a scheduling trace.
//
// Usage:
//
//	easyhps-serve -addr :8080 -slaves 3 -threads 4 -max-jobs 2 -queue 16
//
// The pool's members are -slaves in-process workers of -threads compute
// goroutines each. With -fleet they are instead elastic workers that join
// over TCP, easyhps-worker processes:
//
//	easyhps-serve -addr :8080 -fleet :9000 -max-jobs 8
//	easyhps-worker -addr localhost:9000 -threads 4
//
//	curl -X POST localhost:8080/v1/jobs \
//	     -d '{"kernel":"editdist","n":400,"seed":7}'
//	curl localhost:8080/v1/jobs/job-1
//	curl 'localhost:8080/v1/jobs/job-1?wait=30s'   # answers when the job is terminal
//	curl localhost:8080/v1/jobs/job-1/result
//	curl -X DELETE localhost:8080/v1/jobs/job-1
//	curl localhost:8080/metrics
//
// SIGINT/SIGTERM triggers graceful shutdown: new submissions are refused,
// queued jobs are cancelled, running jobs get -drain to finish before their
// run contexts are cancelled, and then the listener stops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/server"
)

// httpDrain bounds the listener's shutdown once the jobs have drained:
// what is still in flight then is a response being written, not a hold.
const httpDrain = 5 * time.Second

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		slaves   = flag.Int("slaves", 3, "in-process members of the worker pool (without -fleet)")
		threads  = flag.Int("threads", 4, "compute goroutines per in-process member")
		proc     = flag.Int("proc", 0, "process_partition_size (0 = per-problem default)")
		thread   = flag.Int("thread", 0, "thread_partition_size (0 = per-problem default)")
		maxJobs  = flag.Int("max-jobs", 2, "jobs in flight on the pool at once")
		queue    = flag.Int("queue", 16, "bounded submission queue depth (overflow answers 429)")
		maxCells = flag.Int64("max-cells", 16<<20, "largest admitted DP matrix, in cells")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for running jobs")

		fleetAddr  = flag.String("fleet", "", "shared-fleet listen address (e.g. :9000): the pool's members are elastic workers joining over TCP instead of in-process ones; pair with easyhps-worker")
		fleetBatch = flag.Int("fleet-batch", 1, "vertices per dispatch message")
		speculate  = flag.Bool("speculate", false, "speculatively re-execute straggling vertices")
		steal      = flag.Bool("steal", false, "feed hungry workers from loaded members' backlogs")
		auto       = flag.Bool("auto", false, "self-tune: speculation and stealing arm automatically, partitions come from each kernel's cost model, and batch/speculation thresholds adjust online; exports easyhps_tune_* gauges")

		cache         = flag.Bool("cache", false, "enable the content-addressed result cache (whole-job memoization, per-block reuse in fleet mode, content-keyed shipping suppression)")
		cacheDir      = flag.String("cache-dir", "", "cache: persist entries to this directory (empty = memory only)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 256<<20, "cache: LRU byte budget for every entry, blocks and job results")
	)
	flag.Parse()

	// One pool configuration, for the in-process members and -fleet alike.
	run := core.Config{
		Slaves:     *slaves,
		Threads:    *threads,
		Batch:      *fleetBatch,
		Speculate:  *speculate,
		Steal:      *steal,
		Auto:       *auto,
		RunTimeout: 15 * time.Minute,
	}
	if *proc > 0 {
		run.ProcPartition = dag.Square(*proc)
	}
	if *thread > 0 {
		run.ThreadPartition = dag.Square(*thread)
	}

	cfg := server.ManagerConfig{
		Run:           run,
		MaxConcurrent: *maxJobs,
		QueueDepth:    *queue,
		MaxCells:      *maxCells,
	}
	var store *cas.Store
	if *cache {
		var err error
		store, err = cas.NewStore(cas.Options{Dir: *cacheDir, MaxBytes: *cacheMaxBytes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-serve:", err)
			os.Exit(1)
		}
		cfg.Cache = store
	}
	var fl *fleet.Fleet[int32]
	if *fleetAddr != "" {
		var err error
		opts := server.FleetOptions(run)
		opts.Addr, opts.Cache = *fleetAddr, store
		fl, err = fleet.New[int32](opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-serve:", err)
			os.Exit(1)
		}
		defer fl.Close()
		cfg.Fleet = fl
	}
	mgr := server.NewManager(cfg, nil)

	// Constant bounds on what one client holds of the server: the request
	// header, the whole request — a submit body is at most the manager's
	// MaxCells plus its JSON envelope — and an idle keep-alive connection.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.NewHandler(mgr),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		if fl != nil {
			fmt.Fprintf(os.Stderr, "easyhps-serve: listening on %s (shared fleet on %s, %d admission slots, queue %d)\n",
				*addr, fl.Addr(), *maxJobs, *queue)
		} else {
			fmt.Fprintf(os.Stderr, "easyhps-serve: listening on %s (%d in-process members x %d threads, %d admission slots, queue %d)\n",
				*addr, *slaves, *threads, *maxJobs, *queue)
		}
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "easyhps-serve:", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "easyhps-serve: %v, draining (deadline %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// The jobs drain first, the listener after. Every job is terminal
		// when mgr.Shutdown returns, which releases every held status
		// request (?wait=), so srv.Shutdown does not wait out a hold; and
		// clients can still read status and results while jobs drain
		// (new submissions answer 503).
		drainErr := mgr.Shutdown(ctx)
		hctx, hcancel := context.WithTimeout(context.Background(), httpDrain)
		defer hcancel()
		if err := srv.Shutdown(hctx); err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-serve: http shutdown:", err)
		}
		if drainErr != nil {
			fmt.Fprintln(os.Stderr, "easyhps-serve: job drain:", drainErr)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "easyhps-serve: drained cleanly")
	}
}
