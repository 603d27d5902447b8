// Real multi-process deployment over TCP: this example forks itself into
// one master and two worker roles connected by the framed TCP transport
// (the repo's MPI substitute), aligns two sequences across the three
// processes, and verifies the result against the sequential reference.
//
// Run with: go run ./examples/distributed
//
// The same transport powers the standalone cmd/easyhps-launch and
// cmd/easyhps-worker tools for deployments across real machines.
package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	easyhps "repro"
)

const (
	addr    = "127.0.0.1:39401"
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

func config() easyhps.Config {
	return easyhps.Config{
		Threads:         2,
		ProcPartition:   easyhps.Square(40),
		ThreadPartition: easyhps.Square(10),
		RunTimeout:      2 * time.Minute,
	}
}

func main() {
	if len(os.Args) > 1 {
		// Worker role: os.Args[1] is the rank.
		rank := 0
		fmt.Sscanf(os.Args[1], "%d", &rank)
		runWorker(rank)
		return
	}

	// Master role: fork two workers, then schedule.
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	for r := 1; r <= workers; r++ {
		cmd := exec.Command(self, fmt.Sprint(r))
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		defer cmd.Wait()
	}

	tr, err := easyhps.ListenMaster(addr, workers, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	s, prob := buildProblem()
	res, err := easyhps.RunMaster(prob, config(), tr)
	if err != nil {
		log.Fatal(err)
	}

	score, _, _ := easyhps.BestLocal(res.Matrix())
	wantScore, _, _ := easyhps.BestLocal(s.Sequential())
	fmt.Printf("master: best local score %d (sequential reference %d) across %d worker processes in %v\n",
		score, wantScore, workers, res.Stats.Elapsed.Round(time.Millisecond))
	if score != wantScore {
		log.Fatal("distributed result diverged from the sequential reference")
	}
}

func runWorker(rank int) {
	tr, err := easyhps.DialWorker(addr, rank, workers, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	_, prob := buildProblem()
	if err := easyhps.RunSlave(prob, config(), tr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker %d: done\n", rank)
}
