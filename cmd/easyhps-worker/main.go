// Command easyhps-worker runs one EasyHPS slave node as a separate OS
// process, connecting to an easyhps-launch master over TCP.
//
// In fixed mode the -app, -n, -seed, -proc and -thread flags must match
// the master's; the join handshake carries a digest of them, so a
// mismatch is rejected at connect time with a diagnostic naming both
// sides.
//
// In elastic mode (-elastic, no -rank needed) the worker joins the
// master's membership service whenever it starts — including mid-run —
// heartbeats while alive, and departs gracefully on Ctrl-C so its
// in-flight work is reassigned immediately. The master (easyhps-launch
// -elastic) is a fleet with one job, whose spec arrives with the job: a
// worker whose -app/-n/-seed/-proc/-thread differ from the master's exits
// with a "problem spec mismatch" naming both, before computing anything.
//
// In fleet mode (-fleet) the worker joins a shared fleet run by
// easyhps-serve -fleet and serves any number of concurrent jobs: kernel
// state attaches per job from the master's spec frames (validated by
// digest against the built-in registry), so no workload flags are needed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9000", "master address")
		rank    = flag.Int("rank", 1, "fixed mode: this worker's rank (1-based)")
		workers = flag.Int("workers", 2, "fixed mode: total number of workers in the cluster")
		app     = flag.String("app", "swgg", "application, one of "+strings.Join(cli.Apps, ", ")+" (must match the master)")
		n       = flag.Int("n", 400, "matrix side length (must match)")
		seed    = flag.Int64("seed", 1, "workload seed (must match)")
		proc    = flag.Int("proc", 0, "process_partition_size (must match)")
		thread  = flag.Int("thread", 0, "thread_partition_size")
		threads = flag.Int("threads", 4, "compute goroutines on this worker")
		batch   = flag.Int("batch", 1, "flush results in groups of up to this many when the master batches tasks")
		wait    = flag.Duration("wait", time.Minute, "how long to keep dialing the master")

		elastic = flag.Bool("elastic", false, "join an elastic cluster master (ignores -rank/-workers)")
		name    = flag.String("name", "", "elastic/fleet: member name in the master's logs and metrics")
		hb      = flag.Duration("hb", 250*time.Millisecond, "elastic/fleet: heartbeat interval (must match the master)")
		hbMiss  = flag.Int("hb-miss", 3, "elastic/fleet: silent intervals before giving the master up for dead")
		steal   = flag.Bool("steal", false, "elastic/fleet: announce hunger when idle so the master steals backlog this way (pair with master -steal)")

		fleetMode = flag.Bool("fleet", false, "join a shared fleet (easyhps-serve -fleet): jobs attach dynamically, so -app/-n/-seed are ignored")
	)
	flag.Parse()

	// joinFleet serves a fleet master — a shared fleet or an elastic
	// cluster, which is a fleet with one job — until it dismisses this
	// worker or Ctrl-C makes it leave.
	joinFleet := func(build fleet.Builder[int32], left string) {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		opts := fleet.WorkerOptions{
			Addr:              *addr,
			Name:              *name,
			HeartbeatInterval: *hb,
			HeartbeatMiss:     *hbMiss,
			DialTimeout:       *wait,
			Run:               core.Config{Threads: *threads, Batch: *batch},
		}
		if *steal {
			// Announce hunger after two silent heartbeat intervals: long
			// enough to prove the pool has really drained, short enough to
			// claim backlog well before a straggling peer finishes it.
			opts.HungerAfter = 2 * *hb
		}
		err := fleet.RunWorker(ctx, build, opts)
		if err == context.Canceled {
			fmt.Println("worker left the", left)
			return
		}
		fatal(err)
		fmt.Println("worker done")
	}

	if *fleetMode {
		fmt.Printf("joining shared fleet at %s with %d threads\n", *addr, *threads)
		joinFleet(server.RegistryBuilder(server.NewRegistry()), "fleet")
		return
	}

	prob, _, err := cli.Build(*app, *n, *seed)
	fatal(err)

	spec := core.Spec{App: *app, N: *n, Seed: *seed}
	if *proc > 0 {
		spec.Proc = dag.Square(*proc)
	}
	if *thread > 0 {
		spec.Thread = dag.Square(*thread)
	}

	if *elastic {
		// The one job of an elastic cluster is the problem built from this
		// worker's own flags, checked against the master's spec when the
		// job attaches.
		fmt.Printf("joining elastic cluster at %s (spec %s) with %d threads\n", *addr, spec.Digest(), *threads)
		joinFleet(fleet.SpecBuilder(spec, prob), "cluster")
		return
	}

	tr, err := comm.DialWorkerOpts(*addr, *rank, *workers, *wait, comm.TCPOptions{Digest: spec.Digest()})
	fatal(err)
	defer tr.Close()

	cfg := core.Config{Threads: *threads, Batch: *batch}
	if *proc > 0 {
		cfg.ProcPartition = dag.Square(*proc)
	}
	if *thread > 0 {
		cfg.ThreadPartition = dag.Square(*thread)
	}
	fmt.Printf("worker %d/%d connected to %s; computing %s with %d threads\n",
		*rank, *workers, *addr, prob.Name, *threads)
	fatal(core.RunSlave(prob, cfg, tr))
	fmt.Println("worker done")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "easyhps-worker:", err)
		os.Exit(1)
	}
}
