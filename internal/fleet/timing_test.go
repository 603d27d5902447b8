package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/trace"
)

// A worker that sets no timing of its own beats at the fleet's period: on
// a fleet at 50 ms it stays alive through a job of blocks that each take
// longer than the fleet's death bound (HeartbeatMiss intervals), so only
// its beacons prove it alive between results. A worker beating at a period
// of its own choosing would be declared dead mid-block and exit with "lost
// master".
func TestWorkerTakesFleetHeartbeat(t *testing.T) {
	const interval = 50 * time.Millisecond
	f, err := New[int32](Options{Addr: "127.0.0.1:0", HeartbeatInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Four 32×32 blocks at 400 µs a cell: about 0.4 s a block, 1.6 s a job.
	slowBuilder := func(meta JobMeta) (core.Problem[int32], error) {
		p, err := testBuilder(meta)
		return dp.Slow(p, 400*time.Microsecond), err
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	lost := make(chan error, 1)
	go func() {
		lost <- RunWorker(wctx, slowBuilder, WorkerOptions{Addr: f.Addr(), Name: "w0", Run: core.Config{Threads: 1}})
	}()

	prob, want := mustProblem(t, "edit")
	type outcome struct {
		res *Result[int32]
		err error
	}
	ran := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := f.Run(context.Background(), prob, JobRequest{Name: "edit", Proc: dag.Square(32)})
		ran <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-ran:
	case err := <-lost:
		t.Fatalf("worker left mid-job: %v", err)
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if took := time.Since(start); took < 10*interval {
		t.Fatalf("job took %v, want at least 10 heartbeat intervals for the check to mean anything", took)
	}
	checkMatrix(t, "edit", out.res.Store.Assemble(), want)
	if deaths := f.Snapshot().Aggregate.Deaths; deaths != 0 {
		t.Fatalf("deaths = %d, want 0: the worker beat slower than the fleet sweeps", deaths)
	}
}

// A worker that sends no beacon is fed by a steal: on a Steal fleet a
// member that joins while its peer holds a batch backlog finds nothing to
// draw, and the control tick's hunger pass steals toward it
// (core.Driver.Tick). A loaded member's own pass steals nothing, so a
// steal proves the joiner's.
func TestWorkerTakesFleetHungerRule(t *testing.T) {
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		CheckInterval:     10 * time.Millisecond, // a pass every 10 ms
		TaskTimeout:       20 * time.Second,
		Batch:             8,
		Steal:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	busy := make(chan struct{})
	var started sync.Once
	h := NewHarness(testBuilder, f.Addr(), WorkerOptions{Run: core.Config{Threads: 1}}, func() time.Duration {
		started.Do(func() { close(busy) })
		return 0
	})
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow, err := h.Add(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h.Slow(slow, 300*time.Millisecond)
	joinCtx, joined := context.WithTimeout(ctx, 30*time.Second)
	defer joined()
	if err := f.Registry().WaitLive(joinCtx, 1); err != nil {
		t.Fatal(err)
	}

	// Nussinov's eight diagonal blocks are ready at once: the lone member
	// is dealt all of them in one batch.
	prob, want := mustProblem(t, "nussinov")
	type outcome struct {
		res *Result[int32]
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		res, err := f.Run(ctx, prob, JobRequest{Name: "nussinov", Proc: dag.Square(8)})
		ran <- outcome{res, err}
	}()
	// Its first block now takes 300 ms, the rest run at full speed. A
	// member joining meanwhile finds nothing to draw and is parked.
	<-busy
	h.Slow(slow, 0)
	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}
	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkMatrix(t, "nussinov", out.res.Store.Assemble(), want)
	if hungers := f.Snapshot().Hungers; hungers == 0 {
		t.Fatal("no hunger: no pass moved backlog toward the parked worker")
	}
	if out.res.Stats.Steals == 0 {
		t.Fatal("no steal: the parked worker was never fed")
	}
}

// A worker busy on one long task is not hungry: a lone member of a Steal
// fleet ticking every 10 ms computes one 300 ms block, and no hunger is
// counted — its draw succeeded, so it is never parked while it computes,
// and there is no peer backlog to move.
func TestBusyWorkerIsNotHungry(t *testing.T) {
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		CheckInterval:     10 * time.Millisecond,
		TaskTimeout:       20 * time.Second,
		Steal:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := NewHarness(testBuilder, f.Addr(), WorkerOptions{Run: core.Config{Threads: 1}}, func() time.Duration {
		return 300 * time.Millisecond
	})
	defer h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Registry().WaitLive(ctx, 1); err != nil {
		t.Fatal(err)
	}
	prob, want := mustProblem(t, "edit")
	start := time.Now()
	res, err := f.Run(ctx, prob, JobRequest{Name: "edit", Proc: dag.Square(64)}) // one block
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "edit", res.Store.Assemble(), want)
	if res.Stats.Dispatches != 1 {
		t.Fatalf("%d dispatches, want the one block", res.Stats.Dispatches)
	}
	if took := time.Since(start); took < 300*time.Millisecond {
		t.Fatalf("job took %v, want the block's 300 ms at least", took)
	}
	if hungers := f.Snapshot().Hungers; hungers != 0 {
		t.Fatalf("hungers = %d while the lone worker computed its one block, want 0", hungers)
	}
}

// A worker that sets no batch flushes its results by the fleet's: at Batch
// 4 it answers each task message with one frame, so a job's frames are
// twice its task messages although some carry several vertices. A worker
// flushing each result alone would send one frame a vertex.
func TestWorkerTakesFleetBatch(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0", Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := NewHarness(testBuilder, f.Addr(), WorkerOptions{Run: core.Config{Threads: 1}}, nil)
	defer h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Registry().WaitLive(ctx, 1); err != nil {
		t.Fatal(err)
	}
	prob, want := mustProblem(t, "nussinov")
	res, err := f.Run(ctx, prob, JobRequest{Name: "nussinov", Proc: dag.Square(8)})
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "nussinov", res.Store.Assemble(), want)
	var tasks, batched int64
	for _, ev := range f.TraceEvents("nussinov") {
		if ev.Kind == trace.EvDispatch {
			tasks++
			if ev.Ready > 1 {
				batched++
			}
		}
	}
	if batched == 0 {
		t.Fatal("no task message carried more than one vertex")
	}
	if res.Stats.Messages != 2*tasks {
		t.Fatalf("%d frames for %d task messages (%d dispatches), want one answer each", res.Stats.Messages, tasks, res.Stats.Dispatches)
	}
}
