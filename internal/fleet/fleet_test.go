package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// testProblem builds the deterministic DP instance (and its sequential
// reference) for one fleet test job, keyed by name, so the worker-side
// builder can reconstruct the identical problem from an attach frame.
func testProblem(name string) (core.Problem[int32], [][]int32, error) {
	switch name {
	case "edit":
		e := dp.NewEditDistance(dp.RandomDNA(64, 11), dp.RandomDNA(64, 12))
		return e.Problem(), e.Sequential(), nil
	case "nussinov":
		nu := dp.NewNussinov(dp.RandomRNA(64, 13))
		return nu.Problem(), nu.Sequential(), nil
	case "swgg":
		s := dp.NewSWGG(dp.RandomDNA(48, 14), dp.RandomDNA(48, 15))
		return s.Problem(), s.Sequential(), nil
	case "healthy":
		e := dp.NewEditDistance(dp.RandomDNA(64, 21), dp.RandomDNA(64, 22))
		return e.Problem(), e.Sequential(), nil
	case "poisoned":
		e := dp.NewEditDistance(dp.RandomDNA(64, 23), dp.RandomDNA(64, 24))
		return e.Problem(), e.Sequential(), nil
	case "ckpt":
		e := dp.NewEditDistance(dp.RandomDNA(32, 31), dp.RandomDNA(32, 32))
		return e.Problem(), e.Sequential(), nil
	}
	return core.Problem[int32]{}, nil, fmt.Errorf("unknown test job %q", name)
}

func mustProblem(t *testing.T, name string) (core.Problem[int32], [][]int32) {
	t.Helper()
	p, want, err := testProblem(name)
	if err != nil {
		t.Fatal(err)
	}
	return p, want
}

// testBuilder is the worker-side half of testProblem.
func testBuilder(meta JobMeta) (core.Problem[int32], error) {
	p, _, err := testProblem(meta.Name)
	return p, err
}

func checkMatrix(t *testing.T, label string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: [%d][%d] = %d, want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// waitUntil blocks until cond holds, woken by the fleet's progress
// notifier instead of polling: take the progress channel, evaluate cond,
// then wait for the channel to close before re-checking, so no progress
// between check and wait is lost. The real-time timer only bounds a
// wedged fleet.
func waitUntil(t *testing.T, f *Fleet[int32], what string, cond func() bool) {
	t.Helper()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for {
		progressed := f.d.Progress()
		if cond() {
			return
		}
		select {
		case <-progressed:
		case <-timeout.C:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFleetConcurrentJobsWorkerKill is the shared-fleet integration test:
// three different DP jobs run concurrently over four workers, one worker
// is killed mid-run through a proxy, and every job must still assemble a
// matrix bit-identical to its sequential reference with a clean per-job
// lease audit.
func TestFleetConcurrentJobsWorkerKill(t *testing.T) {
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		TaskTimeout:       20 * time.Second,
		Batch:             2,
		Speculate:         true,
		Steal:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Every worker joins through the harness, so the test can sever one
	// connection mid-run.
	h := NewHarness(testBuilder, f.Addr(), WorkerOptions{Run: core.Config{Threads: 2}}, nil)
	defer h.Close()
	const victim = 3
	for i := 0; i <= victim; i++ {
		if _, err := h.Add(context.Background()); err != nil {
			t.Fatal(err)
		}
		h.Slow(i, 3*time.Millisecond)
	}

	jobs := []string{"edit", "nussinov", "swgg"}
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
			res, err := f.Run(context.Background(), prob, JobRequest{Name: name, Weight: float64(i + 1)})
			results[i] = outcome{res, err}
		}(i, name, prob)
	}

	// Sever one worker once the fleet is demonstrably mid-run.
	waitUntil(t, f, "mid-run progress", func() bool {
		return f.Snapshot().Aggregate.Tasks >= 16
	})
	h.Kill(victim)

	jwg.Wait()
	for i, name := range jobs {
		if results[i].err != nil {
			t.Fatalf("job %s failed: %v", name, results[i].err)
		}
		prob, want := mustProblem(t, name)
		checkMatrix(t, name, results[i].res.Store.Assemble(), want)
		if leaked := results[i].res.Stats.Leaked; leaked != 0 {
			t.Fatalf("job %s leaked %d attempts/leases", name, leaked)
		}
		// Nothing reclaimed: the store's peak is every vertex's block.
		n := dag.Build(prob.Kernel.Pattern(), dag.MatrixGeometry(prob.Size, dag.DefaultPartition(prob.Size))).N
		if st := results[i].res.Stats; st.PeakBlocks != int64(n) || st.BlocksReclaimed != 0 {
			t.Fatalf("job %s: PeakBlocks = %d, BlocksReclaimed = %d; want %d and 0", name, st.PeakBlocks, st.BlocksReclaimed, n)
		}
		if len(f.TraceEvents(name)) == 0 {
			t.Fatalf("job %s recorded no trace events", name)
		}
	}
	snap := f.Snapshot()
	if snap.States["done"] != len(jobs) || snap.States["running"] != 0 || snap.States["failed"] != 0 {
		t.Fatalf("job states = %v, want %d done", snap.States, len(jobs))
	}
	if snap.Aggregate.Deaths < 1 {
		t.Fatalf("deaths = %d, want the killed worker declared dead", snap.Aggregate.Deaths)
	}
	if snap.Aggregate.Tasks < int64(16) {
		t.Fatalf("aggregate tasks = %d, want the roll-up to count all jobs", snap.Aggregate.Tasks)
	}
	if err := h.Err(victim); err == nil {
		t.Fatal("killed worker exited cleanly")
	}
}

// runSwallowDriver joins the fleet as a protocol-driver worker that
// computes every job honestly except the named one, whose tasks it
// swallows — answering nothing while claiming idleness, so the fleet
// keeps scheduling around the black hole. Returns on KindEnd.
func runSwallowDriver(addr, swallow string) error {
	return runDriver(addr, swallow, func(comm.Message) comm.Message {
		return comm.Message{Kind: comm.KindIdle}
	})
}

// runDriver joins the fleet as a protocol-driver worker that computes
// every job honestly except the named one, whose tasks it answers with
// misbehave's frame. Returns on KindEnd.
func runDriver(addr, bad string, misbehave func(task comm.Message) comm.Message) error {
	cn, _, err := comm.DialHello(addr, comm.Hello{Fleet: true, Name: "driver"}, 5*time.Second)
	if err != nil {
		return err
	}
	defer cn.Close()
	runners := make(map[int32]*core.TaskRunner[int32])
	swallowed := make(map[int32]bool)
	if err := cn.Send(comm.Message{Kind: comm.KindIdle}); err != nil {
		return err
	}
	for {
		msg, err := cn.Recv()
		if err != nil {
			return err
		}
		switch msg.Kind {
		case comm.KindJobSpec:
			var meta JobMeta
			if err := json.Unmarshal(msg.Payload, &meta); err != nil {
				return err
			}
			if meta.Name == bad {
				swallowed[meta.Job] = true
				continue
			}
			p, _, err := testProblem(meta.Name)
			if err != nil {
				return err
			}
			r, err := core.NewTaskRunner(p, core.Config{ProcPartition: meta.Proc, Threads: 1})
			if err != nil {
				return err
			}
			runners[meta.Job] = r
		case comm.KindTask:
			if swallowed[msg.Job] {
				if err := cn.Send(misbehave(msg)); err != nil {
					return err
				}
				continue
			}
			r := runners[msg.Job]
			if r == nil {
				return fmt.Errorf("task for unattached job %d", msg.Job)
			}
			out, err := r.Run(msg.Vertex, msg.Payload)
			if err != nil {
				return err
			}
			if err := cn.Send(comm.Message{Kind: comm.KindResult, Job: msg.Job, Vertex: msg.Vertex, Attempt: msg.Attempt, Payload: out}); err != nil {
				return err
			}
		case comm.KindJobEnd, comm.KindHeartbeat:
		case comm.KindEnd:
			return nil
		}
	}
}

// TestFleetPoisonedJobIsolationFakeClock drives the per-job overtime path
// on a FakeClock: a job whose tasks a worker swallows must burn through
// its own MaxAttempts and fail alone, while a healthy job sharing the
// same worker completes bit-identically — the tenant-isolation contract.
func TestFleetPoisonedJobIsolationFakeClock(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	const maxAttempts = 3
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: time.Hour, // keep the membership sweep inert
		CheckInterval:     time.Second,
		TaskTimeout:       time.Hour, // jobs override; healthy never expires
		MaxAttempts:       maxAttempts,
		Clock:             fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	healthyProb, healthyWant := mustProblem(t, "healthy")
	poisonProb, _ := mustProblem(t, "poisoned")

	driverDone := make(chan error, 1)
	go func() { driverDone <- runSwallowDriver(f.Addr(), "poisoned") }()

	type outcome struct {
		res *Result[int32]
		err error
	}
	healthyCh := make(chan outcome, 1)
	poisonCh := make(chan outcome, 1)
	go func() {
		res, err := f.Run(context.Background(), healthyProb, JobRequest{Name: "healthy"})
		healthyCh <- outcome{res, err}
	}()
	go func() {
		res, err := f.Run(context.Background(), poisonProb, JobRequest{
			Name:        "poisoned",
			TaskTimeout: 500 * time.Millisecond,
		})
		poisonCh <- outcome{res, err}
	}()

	stats := func(name string) engine.Stats {
		for _, j := range f.Snapshot().Jobs {
			if j.Name == name {
				return j.Stats
			}
		}
		return engine.Stats{}
	}

	for round := 1; round <= maxAttempts; round++ {
		round := round
		waitUntil(t, f, "poisoned dispatch", func() bool {
			return stats("poisoned").Dispatches >= int64(round)
		})
		fake.Advance(f.opts.CheckInterval)
		if round < maxAttempts {
			waitUntil(t, f, "overtime redistribution", func() bool {
				return stats("poisoned").Redistributions >= int64(round)
			})
		}
	}

	pe := <-poisonCh
	if pe.err == nil || !strings.Contains(pe.err.Error(), "MaxAttempts") {
		t.Fatalf("poisoned job error = %v, want a MaxAttempts abort", pe.err)
	}
	he := <-healthyCh
	if he.err != nil {
		t.Fatalf("healthy job failed alongside the poisoned one: %v", he.err)
	}
	checkMatrix(t, "healthy", he.res.Store.Assemble(), healthyWant)
	if he.res.Stats.Leaked != 0 {
		t.Fatalf("healthy job leaked %d attempts/leases", he.res.Stats.Leaked)
	}
	snap := f.Snapshot()
	if snap.States["failed"] != 1 || snap.States["done"] != 1 {
		t.Fatalf("job states = %v, want one failed and one done", snap.States)
	}
	f.Close()
	<-driverDone // either nil (KindEnd) or the close race's conn error
}

// TestFleetWrongRectBlockFailsOnlyItsJob: a block that covers another
// vertex's region under an in-range vertex id used to panic the fleet
// master inside Store.Put and take every job down with it. From a
// worker's result it must fail that job alone, while a healthy job sharing
// the worker completes bit-identically; from a checkpoint record, restore
// must refuse the log before the job starts.
func TestFleetWrongRectBlockFailsOnlyItsJob(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	healthyProb, healthyWant := mustProblem(t, "healthy")
	forgedProb, _ := mustProblem(t, "poisoned")
	proc := dag.Square(16)
	forged, err := matrix.EncodeBlocks(forgedProb.Codec,
		[]*matrix.Block[int32]{matrix.NewBlock[int32](dag.Rect{Row0: 48, Col0: 48, Rows: 16, Cols: 16})})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "does not match geometry rect") {
			t.Fatalf("%s: err = %v, want the rect mismatch", what, err)
		}
	}

	driverDone := make(chan error, 1)
	go func() {
		driverDone <- runDriver(f.Addr(), "poisoned", func(task comm.Message) comm.Message {
			return comm.Message{Kind: comm.KindResult, Job: task.Job, Vertex: task.Vertex, Attempt: task.Attempt, Payload: forged}
		})
	}()
	forgedCh := make(chan error, 1)
	go func() {
		_, err := f.Run(context.Background(), forgedProb, JobRequest{Name: "poisoned", Proc: proc})
		forgedCh <- err
	}()
	res, err := f.Run(context.Background(), healthyProb, JobRequest{Name: "healthy", Proc: proc})
	if err != nil {
		t.Fatalf("healthy job failed alongside the forged one: %v", err)
	}
	checkMatrix(t, "healthy", res.Store.Assemble(), healthyWant)
	wantErr("forged result", <-forgedCh)

	path := t.TempDir() + "/job.ckpt"
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.NewWriter(file).Append(0, forged); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = f.Run(context.Background(), forgedProb, JobRequest{Name: "poisoned", Proc: proc, CheckpointPath: path})
	wantErr("forged checkpoint record", err)

	f.Close()
	<-driverDone // either nil (KindEnd) or the close race's conn error
}

// TestFleetCheckpointResume runs a checkpointed job to completion, then
// resubmits it to a fresh fleet with no workers at all: the entire run
// must replay from the checkpoint, bit-identically.
func TestFleetCheckpointResume(t *testing.T) {
	req := JobRequest{Name: "ckpt", CheckpointPath: t.TempDir() + "/job.ckpt"}
	prob, want := mustProblem(t, "ckpt")

	f1, err := New[int32](Options{Addr: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	go func() {
		_ = RunWorker(wctx, testBuilder, WorkerOptions{Addr: f1.Addr(), Run: core.Config{Threads: 2}})
	}()
	r1, err := f1.Run(context.Background(), prob, req)
	if err != nil {
		t.Fatal(err)
	}
	f1.Close()
	checkMatrix(t, "first run", r1.Store.Assemble(), want)
	if r1.Stats.Leaked != 0 {
		t.Fatalf("first run leaked %d attempts/leases", r1.Stats.Leaked)
	}

	f2, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	r2, err := f2.Run(context.Background(), prob, req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Restored != r1.Stats.Tasks {
		t.Fatalf("restored %d vertices, want %d", r2.Stats.Restored, r1.Stats.Tasks)
	}
	if vertices := int64(r2.Store.Geometry().Grid.Cells()); r2.Stats.Restored+r2.Stats.Tasks != vertices {
		t.Fatalf("restored %d + tasks %d != %d vertices: completed vertices were recomputed",
			r2.Stats.Restored, r2.Stats.Tasks, vertices)
	}
	checkMatrix(t, "restored run", r2.Store.Assemble(), want)
}

// TestRunWorkerRefusesSkew verifies the worker-side checks: a corrupted
// digest and a builder whose problem size diverges from the master's are
// both refused at attach time, not mid-run, and a welcome without a
// heartbeat period — which would leave the worker unable to tell a dead
// master — at the handshake.
func TestRunWorkerRefusesSkew(t *testing.T) {
	serve := func(t *testing.T, meta JobMeta, beat time.Duration) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			cn, _, err := comm.AcceptHello(c, func(comm.Hello) comm.Welcome { return comm.Welcome{Member: 1, Heartbeat: beat} })
			if err != nil {
				return
			}
			payload, _ := json.Marshal(meta)
			_ = cn.Send(comm.Message{Kind: comm.KindJobSpec, Job: meta.Job, Payload: payload})
		}()
		return ln.Addr().String()
	}

	t.Run("digest", func(t *testing.T) {
		meta := JobMeta{Job: 1, Name: "edit", Rows: 8, Cols: 8, Digest: "not-the-digest"}
		addr := serve(t, meta, time.Second)
		err := RunWorker(context.Background(), testBuilder, WorkerOptions{Addr: addr, DialTimeout: 2 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Fatalf("RunWorker = %v, want a digest-mismatch refusal", err)
		}
	})
	t.Run("builder size", func(t *testing.T) {
		meta := JobMeta{Job: 1, Name: "edit", Rows: 3, Cols: 3, Proc: dag.Size{Rows: 1, Cols: 1}}
		meta.Digest = meta.digest()
		addr := serve(t, meta, time.Second)
		err := RunWorker(context.Background(), testBuilder, WorkerOptions{Addr: addr, DialTimeout: 2 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "builder/registry skew") {
			t.Fatalf("RunWorker = %v, want a builder/registry-skew refusal", err)
		}
	})
	t.Run("beatless welcome", func(t *testing.T) {
		addr := serve(t, JobMeta{Job: 1, Name: "edit"}, 0)
		err := RunWorker(context.Background(), testBuilder, WorkerOptions{Addr: addr, DialTimeout: 2 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "heartbeat period 0s, want a positive one") {
			t.Fatalf("RunWorker = %v, want a refusal of the beatless welcome", err)
		}
	})
}
