package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/trace"
	"repro/internal/tune"
)

// An Auto fleet over real TCP: no speculation/steal/batch knobs are set
// by hand, two jobs share three workers, and both must finish
// bit-identically to their sequential references while the controller
// adjusts the shared knobs at least once (a run this size crosses many
// control ticks with dispatch progress). Every adjustment must surface
// as an EvTune event on the fleet recorder.
func TestFleetAutoTunesOverTCP(t *testing.T) {
	tr := trace.New()
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		CheckInterval:     10 * time.Millisecond,
		TaskTimeout:       20 * time.Second,
		Auto:              true,
		Trace:             tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var wwg sync.WaitGroup
	defer wwg.Wait() // after stopWorkers below: workers exit on cancel
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	for _, name := range []string{"w0", "w1", "w2"} {
		name := name
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			_ = RunWorker(wctx, testBuilder, WorkerOptions{
				Addr:      f.Addr(),
				Name:      name,
				Run:       core.Config{Threads: 2},
				taskDelay: func() time.Duration { return 2 * time.Millisecond },
			})
		}()
	}

	// Explicit partitions keep the DAG sizes fixed regardless of how many
	// workers have joined at submission (the advisor's membership-driven
	// choice is covered by the core and sim tests); what is under test
	// here is the online batch/speculation tuning on the shared pool.
	jobs := []string{"edit", "nussinov"}
	type outcome struct {
		res *Result[int32]
		err error
	}
	results := make([]outcome, len(jobs))
	var jwg sync.WaitGroup
	for i, name := range jobs {
		prob, _ := mustProblem(t, name)
		jwg.Add(1)
		go func(i int, name string, prob core.Problem[int32]) {
			defer jwg.Done()
			res, err := f.Run(context.Background(), prob, JobRequest{Name: name, Proc: dag.Square(8)})
			results[i] = outcome{res, err}
		}(i, name, prob)
	}
	jwg.Wait()

	for i, name := range jobs {
		if results[i].err != nil {
			t.Fatalf("job %s failed: %v", name, results[i].err)
		}
		_, want := mustProblem(t, name)
		checkMatrix(t, name, results[i].res.Store.Assemble(), want)
	}

	snap, ok := f.TuneSnapshot()
	if !ok {
		t.Fatal("Auto fleet reports no tune snapshot")
	}
	lim := tune.DefaultLimits()
	if snap.BatchCap < lim.MinBatch || snap.BatchCap > lim.MaxBatch {
		t.Fatalf("batch cap %d outside [%d, %d]", snap.BatchCap, lim.MinBatch, lim.MaxBatch)
	}
	if snap.Adjustments == 0 {
		t.Fatal("controller made no adjustments over two full jobs")
	}
	var tunes int64
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EvTune {
			tunes++
		}
	}
	if tunes != snap.Adjustments {
		t.Fatalf("EvTune events = %d, adjustments = %d; every adjustment must be traced", tunes, snap.Adjustments)
	}
}
