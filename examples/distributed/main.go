// Real multi-process deployment over TCP: this example forks itself into
// one master and two worker processes, aligns two sequences across the
// three, and verifies the result against the sequential reference. The
// master is a fleet (internal/fleet) running one job: it listens on a free
// loopback port, hands the bound address to the workers it forks, waits
// for both to join and runs the alignment over them; a worker that dies
// mid-run has its sub-tasks reassigned to the other.
//
// Run with: go run ./examples/distributed
//
// The same fleet powers the standalone cmd/easyhps-launch and
// cmd/easyhps-worker tools for deployments across real machines.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	easyhps "repro"
	"repro/internal/fleet"
)

const (
	workers = 2
	n       = 160
	seed    = 11
)

func buildProblem() (*easyhps.SWGG, easyhps.Problem32) {
	a := easyhps.RandomDNA(n, seed)
	b := easyhps.MutateSeq(a, "ACGT", 0.2, seed+1)
	s := easyhps.NewSWGG(a, b)
	return s, s.Problem()
}

func main() {
	if len(os.Args) > 1 {
		// Worker role: os.Args[1] is the master's address.
		runWorker(os.Args[1])
		return
	}

	// Master role: listen, fork two workers at the bound address, wait
	// for both, then schedule.
	f, err := fleet.New[int32](fleet.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	var procs []*exec.Cmd
	for r := 0; r < workers; r++ {
		cmd := exec.Command(self, f.Addr())
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		procs = append(procs, cmd)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	s, prob := buildProblem()
	res, err := runJob(ctx, f, prob)
	// Closing the fleet dismisses the workers, which then exit.
	f.Close()
	for _, cmd := range procs {
		if werr := cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("worker process: %w", werr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	score, _, _ := easyhps.BestLocal(res.Store.Assemble())
	wantScore, _, _ := easyhps.BestLocal(s.Sequential())
	fmt.Printf("master: best local score %d (sequential reference %d) across %d worker processes in %v\n",
		score, wantScore, workers, res.Stats.Elapsed.Round(time.Millisecond))
	if score != wantScore {
		log.Fatal("distributed result diverged from the sequential reference")
	}
}

// runJob waits for every forked worker to join, then runs prob as the
// fleet's one job; each worker computes a 40x40 block in 10x10 sub-blocks.
func runJob(ctx context.Context, f *fleet.Fleet[int32], prob easyhps.Problem32) (*fleet.Result[int32], error) {
	if err := f.Registry().WaitLive(ctx, workers); err != nil {
		return nil, err
	}
	return f.Run(ctx, prob, fleet.JobRequest{
		Name:   "swgg",
		Proc:   easyhps.Square(40),
		Thread: easyhps.Square(10),
	})
}

// runWorker joins the fleet at addr and computes until the master dismisses
// it. Every job it is sent is this example's alignment, so the builder
// ignores the attach frame's spec and builds the same problem the master
// did; the fleet still checks its size against the master's.
func runWorker(addr string) {
	err := fleet.RunWorker(context.Background(), func(fleet.JobMeta) (easyhps.Problem32, error) {
		_, prob := buildProblem()
		return prob, nil
	}, fleet.WorkerOptions{Addr: addr, DialTimeout: 30 * time.Second, Run: easyhps.Config{Threads: 2}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker %d: done\n", os.Getpid())
}
