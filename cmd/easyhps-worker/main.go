// Command easyhps-worker runs one EasyHPS slave node as a separate OS
// process, connecting to an easyhps-launch master over TCP.
//
// In fixed mode (-rank) the -app, -n, -seed and -proc flags must match
// the master's; the join handshake carries the job's digest and the
// processor partition (-thread is this worker's own), so a mismatch is
// rejected at connect time with a diagnostic naming both sides.
//
// In fleet mode (-fleet) the worker joins a fleet master — easyhps-serve
// -fleet, which runs any number of concurrent jobs, or easyhps-launch
// -elastic, which is a fleet with one job — whenever it starts, including
// mid-run, heartbeats while alive, and departs gracefully on Ctrl-C so its
// in-flight work is reassigned immediately. Each job arrives with its spec
// in an attach frame, from which the worker builds the problem through the
// job service's kernel table (verified by digest and size), so no problem
// flags are needed.
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
		app     = flag.String("app", "swgg", "fixed mode: application, one of "+strings.Join(cli.Apps, ", ")+" (must match the master)")
		n       = flag.Int("n", 400, "fixed mode: matrix side length (must match)")
		seed    = flag.Int64("seed", 1, "fixed mode: workload seed (must match)")
		proc    = flag.Int("proc", 0, "fixed mode: process_partition_size (must match)")
		thread  = flag.Int("thread", 0, "fixed mode: thread_partition_size")
		threads = flag.Int("threads", 4, "compute goroutines on this worker")
		batch   = flag.Int("batch", 1, "flush results in groups of up to this many when the master batches tasks")
		wait    = flag.Duration("wait", time.Minute, "how long to keep dialing the master")

		name   = flag.String("name", "", "fleet: member name in the master's logs and metrics")
		hb     = flag.Duration("hb", 250*time.Millisecond, "fleet: heartbeat interval (must match the master)")
		hbMiss = flag.Int("hb-miss", 3, "fleet: silent intervals before giving the master up for dead")
		steal  = flag.Bool("steal", false, "fleet: announce hunger when idle so the master steals backlog this way (pair with master -steal)")

		fleetMode = flag.Bool("fleet", false, "join a fleet master (easyhps-serve -fleet or easyhps-launch -elastic): jobs attach with their spec, so the problem flags are ignored")
	)
	flag.Parse()

	if *fleetMode {
		fmt.Printf("joining fleet at %s with %d threads\n", *addr, *threads)
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
		err := fleet.RunWorker(ctx, server.RegistryBuilder(server.NewRegistry()), opts)
		if err == context.Canceled {
			fmt.Println("worker left the fleet")
			return
		}
		fatal(err)
		fmt.Println("worker done")
		return
	}

	job := server.JobSpec{Kernel: *app, N: *n, Seed: *seed}
	prob, _, err := cli.BuildSpec(job)
	fatal(err)
	cfg := core.Config{Threads: *threads, Batch: *batch}
	if *proc > 0 {
		cfg.ProcPartition = dag.Square(*proc)
	}
	if *thread > 0 {
		cfg.ThreadPartition = dag.Square(*thread)
	}

	tr, err := comm.DialWorkerOpts(*addr, *rank, *workers, *wait, comm.TCPOptions{Digest: cli.RankDigest(job, cfg.ProcPartition)})
	fatal(err)
	defer tr.Close()
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
