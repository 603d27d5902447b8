// Command easyhps-worker runs one EasyHPS slave node as a separate OS
// process: a fleet member (internal/fleet) of an easyhps-launch master,
// which is a fleet with one job, or of easyhps-serve -fleet, which runs any
// number of concurrent jobs. It joins whenever it starts, including
// mid-run, heartbeats while alive, and departs gracefully on Ctrl-C so its
// in-flight work is reassigned immediately. Each job arrives with its spec
// in an attach frame, from which the worker builds the problem through the
// job service's kernel table (verified by digest and size), so it takes no
// problem flags; its heartbeat period, dead-master bound and result batch
// arrive in the master's welcome, so it takes no timing or batch flags
// either. It announces no hunger: the master reads that off its empty draw.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9000", "master address")
		threads = flag.Int("threads", 4, "compute goroutines on this worker")
		wait    = flag.Duration("wait", time.Minute, "how long to keep dialing the master")
		name    = flag.String("name", "", "member name in the master's logs and metrics")
	)
	flag.Parse()

	fmt.Printf("joining fleet at %s with %d threads\n", *addr, *threads)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := fleet.RunWorker(ctx, server.RegistryBuilder(server.NewRegistry()), fleet.WorkerOptions{
		Addr:        *addr,
		Name:        *name,
		DialTimeout: *wait,
		Run:         core.Config{Threads: *threads},
	})
	if err == context.Canceled {
		fmt.Println("worker left the fleet")
		return
	}
	fatal(err)
	fmt.Println("worker done")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "easyhps-worker:", err)
		os.Exit(1)
	}
}
