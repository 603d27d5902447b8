package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// End-to-end over the real TCP transport: master and slaves as separate
// goroutines connected by actual sockets (the multi-process deployment's
// wire path, minus process isolation).
func TestRunOverTCP(t *testing.T) {
	const addr = "127.0.0.1:39301"
	const workers = 2

	a := dp.RandomDNA(60, 51)
	b := dp.RandomDNA(60, 52)
	e := dp.NewEditDistance(a, b)
	prob := e.Problem()
	cfg := core.Config{
		Threads:         2,
		ProcPartition:   dag.Square(15),
		ThreadPartition: dag.Square(5),
		RunTimeout:      time.Minute,
	}

	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := comm.DialWorker(addr, r, workers, 10*time.Second)
			if err != nil {
				t.Errorf("worker %d dial: %v", r, err)
				return
			}
			defer tr.Close()
			if err := core.RunSlave(prob, cfg, tr); err != nil {
				t.Errorf("worker %d: %v", r, err)
			}
		}(r)
	}

	tr, err := comm.ListenMaster(addr, workers, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	res, err := core.RunMasterContext(context.Background(), prob, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	equalMatrices(t, "editdist-tcp", res.Matrix(), e.Sequential())
	if res.Stats.Tasks != 16 {
		t.Fatalf("tasks = %d, want 16", res.Stats.Tasks)
	}
}

// The triangular pattern ships larger, irregular data regions; exercise it
// over TCP too.
func TestNussinovOverTCP(t *testing.T) {
	const addr = "127.0.0.1:39302"
	const workers = 3

	nu := dp.NewNussinov(dp.RandomRNA(48, 53))
	prob := nu.Problem()
	cfg := core.Config{
		Threads:         2,
		ProcPartition:   dag.Square(12),
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}

	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := comm.DialWorker(addr, r, workers, 10*time.Second)
			if err != nil {
				t.Errorf("worker %d dial: %v", r, err)
				return
			}
			defer tr.Close()
			if err := core.RunSlave(prob, cfg, tr); err != nil {
				t.Errorf("worker %d: %v", r, err)
			}
		}(r)
	}

	tr, err := comm.ListenMaster(addr, workers, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	res, err := core.RunMasterContext(context.Background(), prob, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	equalMatrices(t, "nussinov-tcp", res.Matrix(), nu.Sequential())
}
