// The elastic suite. An elastic cluster is a fleet with one job — what
// easyhps-launch -elastic composes from fleet.New, Registry.WaitLive and
// one Fleet.Run — so these tests drive exactly that composition over real
// sockets, every worker behind the fault harness's proxy, and judge it by
// the membership table it leaves behind.
package cluster_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// testProblem is an edit-distance instance partitioned into an 8x8 grid
// of processor-level vertices: large enough that faults land mid-run,
// small enough for the race detector.
func testProblem(t testing.TB) (core.Problem[int32], [][]int32, cluster.Spec) {
	t.Helper()
	e := dp.NewEditDistance(dp.RandomDNA(64, 51), dp.RandomDNA(64, 52))
	spec := cluster.Spec{App: "editdist", N: 64, Seed: 51, Proc: dag.Square(8), Thread: dag.Square(4)}
	return e.Problem(), e.Sequential(), spec
}

func testOptions() fleet.Options {
	return fleet.Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMiss:     3,
		TaskTimeout:       20 * time.Second,
	}
}

func testWorkerOptions(workPerCell time.Duration) fleet.WorkerOptions {
	return fleet.WorkerOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMiss:     3,
		DialTimeout:       10 * time.Second,
		Run: core.Config{
			Threads:          2,
			WorkDelayPerCell: workPerCell,
		},
	}
}

// startMaster starts the fleet an elastic master is, closed with the test.
func startMaster(t testing.TB, opts fleet.Options) *fleet.Fleet[int32] {
	t.Helper()
	f, err := fleet.New[int32](opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// runElastic is the launcher's driver: wait for the quorum, then run prob
// as the fleet's one job, its spec in the attach frame. edit, when
// non-nil, adjusts the request (progress hook, checkpoint).
func runElastic(ctx context.Context, f *fleet.Fleet[int32], prob core.Problem[int32], spec cluster.Spec, minWorkers int, edit func(*fleet.JobRequest)) (*fleet.Result[int32], error) {
	joinCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err := f.Registry().WaitLive(joinCtx, minWorkers)
	cancel()
	if err != nil {
		return nil, err
	}
	req := fleet.SpecRequest(spec)
	req.Timeout = 2 * time.Minute
	if edit != nil {
		edit(&req)
	}
	return f.Run(ctx, prob, req)
}

func equalMatrices(t *testing.T, label string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cols, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: [%d][%d] = %d, want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// progressTrigger returns an OnProgress hook that closes ch (once) when
// completion reaches threshold, so a test goroutine with proper
// happens-before edges can react off the master's receive loop.
func progressTrigger(threshold int, ch chan<- struct{}) func(done, total int) {
	var once sync.Once
	return func(done, total int) {
		if done >= threshold {
			once.Do(func() { close(ch) })
		}
	}
}

// Killing one of four workers mid-run must not affect the result: the
// dead member's leases are revoked and its vertices recomputed elsewhere.
func TestElasticKillWorker(t *testing.T) {
	prob, want, spec := testProblem(t)
	f := startMaster(t, testOptions())
	h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), testWorkerOptions(200*time.Microsecond))
	defer h.Close()
	killAt := make(chan struct{})
	go func() {
		<-killAt
		h.Kill(0)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := h.Add(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runElastic(ctx, f, prob, spec, 4, func(req *fleet.JobRequest) {
		req.OnProgress = progressTrigger(5, killAt)
	})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "kill-worker", res.Store.Assemble(), want)
	if _, _, deaths, _, _ := f.Registry().MembershipCounts(); deaths != 1 {
		t.Fatalf("deaths = %d, want 1", deaths)
	}
	if res.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d, want 64", res.Stats.Tasks)
	}
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
	if err := h.Err(0); err == nil {
		t.Fatal("killed worker exited cleanly")
	}
}

// A worker joining mid-run must be admitted and pull computable vertices.
func TestElasticJoinMidRun(t *testing.T) {
	prob, want, spec := testProblem(t)
	opts := testOptions()
	tr := trace.New()
	opts.Trace = tr
	f := startMaster(t, opts)
	h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), testWorkerOptions(200*time.Microsecond))
	defer h.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joinAt := make(chan struct{})
	go func() {
		<-joinAt
		if _, err := h.Add(ctx); err != nil {
			t.Errorf("mid-run join: %v", err)
		}
	}()

	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}
	h.Slow(0, 5*time.Millisecond) // keep the run alive for the joiner

	res, err := runElastic(ctx, f, prob, spec, 1, func(req *fleet.JobRequest) {
		req.OnProgress = progressTrigger(3, joinAt)
	})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "join-mid-run", res.Store.Assemble(), want)
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
	if joins, _, _, _, _ := f.Registry().MembershipCounts(); joins != 2 {
		t.Fatalf("joins = %d, want 2", joins)
	}
	members := f.Registry().Members()
	if len(members) != 2 {
		t.Fatalf("members = %d, want 2", len(members))
	}
	if members[1].Completed == 0 {
		t.Fatal("mid-run joiner computed no vertices")
	}
	// The join must be visible to tracing.
	joins := 0
	for _, e := range tr.MemberEvents() {
		if e.Label == "active" {
			joins++
		}
	}
	if joins < 2 {
		t.Fatalf("trace shows %d activations, want >= 2", joins)
	}
}

// A master interrupted mid-run must resume from its checkpoint: restored
// vertices are not recomputed and the result is still correct.
func TestMasterRestartFromCheckpoint(t *testing.T) {
	prob, want, spec := testProblem(t)
	ckpt := t.TempDir() + "/run.ckpt"

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	stopAt := make(chan struct{})
	go func() {
		<-stopAt
		cancel1()
	}()
	f1 := startMaster(t, testOptions())
	h1 := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f1.Addr(), testWorkerOptions(500*time.Microsecond))
	defer h1.Close()
	for i := 0; i < 2; i++ {
		if _, err := h1.Add(ctx1); err != nil {
			t.Fatal(err)
		}
	}
	_, err := runElastic(ctx1, f1, prob, spec, 2, func(req *fleet.JobRequest) {
		req.CheckpointPath = ckpt
		req.OnProgress = progressTrigger(20, stopAt)
	})
	if err == nil {
		t.Fatal("cancelled master reported success")
	}
	h1.Close()
	f1.Close()

	// Second incarnation, same checkpoint path.
	f2 := startMaster(t, testOptions())
	h2 := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f2.Addr(), testWorkerOptions(0))
	defer h2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	for i := 0; i < 2; i++ {
		if _, err := h2.Add(ctx2); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runElastic(ctx2, f2, prob, spec, 2, func(req *fleet.JobRequest) {
		req.CheckpointPath = ckpt
	})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "restart", res.Store.Assemble(), want)
	if res.Stats.Restored < 20 {
		t.Fatalf("restored = %d, want >= 20 (phase 1 completed at least that many)", res.Stats.Restored)
	}
	if res.Stats.Restored+res.Stats.Tasks != 64 {
		t.Fatalf("restored %d + tasks %d != 64: completed vertices were recomputed",
			res.Stats.Restored, res.Stats.Tasks)
	}
}

// A partitioned link (TCP open, no bytes flowing) must be detected by the
// heartbeat deadline and the member's work reassigned.
func TestPartitionedMemberDeclaredDead(t *testing.T) {
	prob, want, spec := testProblem(t)
	f := startMaster(t, testOptions())
	h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), testWorkerOptions(300*time.Microsecond))
	defer h.Close()
	cutAt := make(chan struct{})
	go func() {
		<-cutAt
		h.Partition(0)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := h.Add(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runElastic(ctx, f, prob, spec, 3, func(req *fleet.JobRequest) {
		req.OnProgress = progressTrigger(5, cutAt)
	})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "partition", res.Store.Assemble(), want)
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
	if _, _, deaths, _, _ := f.Registry().MembershipCounts(); deaths != 1 {
		t.Fatalf("deaths = %d, want 1 (partitioned member)", deaths)
	}
}

// A worker whose flags produce a different problem spec is admitted — a
// fleet member carries no spec — but must refuse the job when it attaches,
// before computing a vertex, naming both specs. The master sees a join
// and a death, reassigns the lease, and the run completes bit-identical
// on a worker that matches.
func TestClusterRejectsSpecMismatch(t *testing.T) {
	prob, want, spec := testProblem(t)
	f := startMaster(t, testOptions())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	badSpec := spec
	badSpec.Seed = 99
	wopts := testWorkerOptions(0)
	wopts.Addr = f.Addr()
	refused := make(chan error, 1)
	go func() { refused <- fleet.RunWorker(ctx, fleet.SpecBuilder(badSpec, prob), wopts) }()

	// The mismatched worker alone makes the quorum, so the job's first
	// batch goes to it.
	type outcome struct {
		res *fleet.Result[int32]
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := runElastic(ctx, f, prob, spec, 1, nil)
		resCh <- outcome{res, err}
	}()
	err := <-refused
	if err == nil || !strings.Contains(err.Error(), "problem spec mismatch") ||
		!strings.Contains(err.Error(), "Seed:51") || !strings.Contains(err.Error(), "Seed:99") {
		t.Fatalf("mismatched worker error = %v, want a spec-mismatch refusal naming both specs", err)
	}

	h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), testWorkerOptions(0))
	defer h.Close()
	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	equalMatrices(t, "after-refusal", out.res.Store.Assemble(), want)
	if out.res.Stats.Tasks != 64 || out.res.Stats.Leaked != 0 {
		t.Fatalf("tasks = %d, leaked = %d; want 64 and 0", out.res.Stats.Tasks, out.res.Stats.Leaked)
	}
	joins, _, deaths, revoked, reassigned := f.Registry().MembershipCounts()
	if joins != 2 || deaths != 1 {
		t.Fatalf("joins = %d, deaths = %d; want 2 and 1 (the refusing worker joined and died)", joins, deaths)
	}
	if revoked != 1 || reassigned != 1 {
		t.Fatalf("revoked = %d, reassigned = %d; want the refused vertex's lease revoked and requeued once", revoked, reassigned)
	}
	if m := f.Registry().Members()[0]; m.Completed != 0 {
		t.Fatalf("the mismatched worker computed %d vertices before refusing", m.Completed)
	}
}
