package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// crashWork is emulated work per cell for the tests that kill a slave on
// its k-th task: a block then takes milliseconds, so every slave is handed
// tasks on every wide diagonal and the doomed one reaches its k-th. With
// real kernels alone two slaves can drain these small matrices in under a
// millisecond, before the third has said hello, and nothing crashes.
const crashWork = 20 * time.Microsecond

// faultConfig uses short timeouts so recovery paths fire quickly.
func faultConfig() core.Config {
	return core.Config{
		Slaves:          3,
		Threads:         2,
		ProcPartition:   dag.Square(16),
		ThreadPartition: dag.Square(6),
		TaskTimeout:     150 * time.Millisecond,
		SubTaskTimeout:  150 * time.Millisecond,
		CheckInterval:   20 * time.Millisecond,
		RunTimeout:      120 * time.Second,
	}
}

// A slave that dies mid-run loses its in-flight task; the master must
// detect the timeout, redistribute to the surviving slaves, and still
// produce a correct matrix.
func TestSlaveCrashRecovered(t *testing.T) {
	a := dp.RandomDNA(60, 31)
	b := dp.RandomDNA(60, 32)
	e := dp.NewEditDistance(a, b)
	cfg := faultConfig()
	cfg.WorkDelayPerCell = crashWork
	cfg.Faults = core.FaultPlan{CrashOnTask: map[int]int{2: 3}} // slave 2 dies on its 3rd task
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-crash", res.Matrix(), e.Sequential())
	if res.Stats.Redistributions == 0 {
		t.Fatalf("expected at least one redistribution, stats: %v", res.Stats)
	}
}

func TestTwoSlavesCrashRecovered(t *testing.T) {
	a := dp.RandomDNA(60, 33)
	b := dp.RandomDNA(60, 34)
	e := dp.NewEditDistance(a, b)
	cfg := faultConfig()
	cfg.Slaves = 4
	cfg.ProcPartition = dag.Square(10) // 6x6 grid: every slave sees several tasks
	cfg.ThreadPartition = dag.Square(4)
	cfg.WorkDelayPerCell = crashWork
	cfg.Faults = core.FaultPlan{CrashOnTask: map[int]int{1: 2, 3: 3}}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-2crash", res.Matrix(), e.Sequential())
	if res.Stats.Redistributions < 2 {
		t.Fatalf("expected redistributions for both lost tasks, stats: %v", res.Stats)
	}
}

// A stalled slave answers after its task was redistributed; the stale
// result must be dropped by the register table, not double-applied.
func TestStaleResultDropped(t *testing.T) {
	a := dp.RandomDNA(48, 35)
	b := dp.RandomDNA(48, 36)
	e := dp.NewEditDistance(a, b)
	cfg := faultConfig()
	// Vertex 0 is the wavefront root: its first attempt stalls past the
	// timeout, so it is redistributed, and enough emulated work remains
	// behind it that the run is still going when the stalled slave
	// finally answers — the stale result must be dropped.
	cfg.ProcPartition = dag.Square(6) // 8x8 grid
	cfg.ThreadPartition = dag.Square(3)
	cfg.WorkDelayPerCell = 100 * time.Microsecond
	cfg.Faults = core.FaultPlan{StallFirstAttempt: map[int32]time.Duration{0: 250 * time.Millisecond}}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-stale", res.Matrix(), e.Sequential())
	if res.Stats.Redistributions == 0 {
		t.Fatalf("stall did not trigger redistribution: %v", res.Stats)
	}
	if res.Stats.StaleResults == 0 {
		t.Fatalf("late result was not dropped as stale: %v", res.Stats)
	}
}

// Under BCW the last vertex, slave 2's, times out after slave 1 has run
// everything it owns. The vertex must still find a drawer: when a drained
// owner's sender used to leave, the requeue parked it with no one to take it
// and the run hung until RunTimeout.
func TestBlockCyclicRequeueAfterOwnerDrained(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(64, 51), dp.RandomDNA(64, 52))
	res, err := core.RunContext(context.Background(), e.Problem(), core.Config{
		Slaves:        2,
		Threads:       1,
		ProcPartition: dag.Square(16), // 4x4 grid
		Policy:        core.PolicyBlockCyclic,
		TaskTimeout:   40 * time.Millisecond,
		CheckInterval: 5 * time.Millisecond,
		RunTimeout:    3 * time.Second,
		Faults:        core.FaultPlan{StallFirstAttempt: map[int32]time.Duration{15: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-bcw-requeue", res.Matrix(), e.Sequential())
	if res.Stats.Redistributions < 1 {
		t.Fatalf("the stall did not trigger a redistribution: %v", res.Stats)
	}
}

// A vertex that keeps timing out fails the run with the engine's reason
// under core's prefix, not the pool's name for the run's one job.
func TestPoisonedVertexFailsRun(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(32, 53), dp.RandomDNA(32, 54))
	cfg := faultConfig()
	cfg.Slaves = 1
	cfg.TaskTimeout = 20 * time.Millisecond
	cfg.CheckInterval = 5 * time.Millisecond
	cfg.MaxAttempts = 1
	cfg.Faults = core.FaultPlan{StallFirstAttempt: map[int32]time.Duration{0: 200 * time.Millisecond}}
	_, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if want := "core: vertex 0 timed out 1 times (MaxAttempts); giving up"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// Thread-level fault tolerance: a compute goroutine panics on one
// sub-sub-task; the slave worker pool recovers (restart semantics) and the
// sub-task is re-pushed and completed.
func TestWorkerPanicRecovered(t *testing.T) {
	a := dp.RandomDNA(40, 37)
	b := dp.RandomDNA(40, 38)
	e := dp.NewEditDistance(a, b)
	cfg := faultConfig()
	cfg.Faults = core.FaultPlan{PanicSubTask: map[core.SubTaskID]bool{
		{Proc: 0, Sub: 0}: true,
		{Proc: 1, Sub: 2}: true,
	}}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-panic", res.Matrix(), e.Sequential())
	if res.Stats.WorkerRestarts < 2 {
		t.Fatalf("expected 2 worker restarts, stats: %v", res.Stats)
	}
}

// At one thread a block is sub-task 0, so a kernel panic there is
// recovered and the whole block retried in place: before the block's
// first row, and in a Row halfway down a block whose rows above it were
// already written into the result. The matrix comes out bit-identical.
func TestOneThreadPanicRetriesBlock(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(40, 37), dp.RandomDNA(40, 38))
	k := &flakyRows{EditDistance: e, planted: map[[2]int]bool{{24, 16}: true}} // block (1,1), row 8 of 16
	p := e.Problem()
	p.Kernel = k
	cfg := faultConfig()
	cfg.Threads = 1
	cfg.Faults = core.FaultPlan{PanicSubTask: map[core.SubTaskID]bool{
		{Proc: 0, Sub: 0}: true,
		{Proc: 5, Sub: 0}: true,
	}}
	res, err := core.RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-panic-one-thread", res.Matrix(), e.Sequential())
	if len(k.planted) != 0 || res.Stats.WorkerRestarts != 3 {
		t.Fatalf("planted panics left %v, worker restarts %d: want none left and 3 restarts", k.planted, res.Stats.WorkerRestarts)
	}
}

// Thread-level timeout: a stalled sub-sub-task is re-pushed by the slave
// fault-tolerance thread and executed by another worker; the late
// duplicate is discarded at commit.
func TestSubTaskStallRecovered(t *testing.T) {
	a := dp.RandomDNA(40, 39)
	b := dp.RandomDNA(40, 40)
	e := dp.NewEditDistance(a, b)
	cfg := faultConfig()
	cfg.Threads = 3 // leave free workers for the duplicate execution
	cfg.Faults = core.FaultPlan{StallSubTask: map[core.SubTaskID]time.Duration{
		{Proc: 0, Sub: 0}: 500 * time.Millisecond,
	}}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-substall", res.Matrix(), e.Sequential())
	if res.Stats.SubRequeues == 0 {
		t.Fatalf("expected a thread-level requeue, stats: %v", res.Stats)
	}
}

// Faults during a triangular (Nussinov) run, where redistributed blocks
// carry larger data regions.
func TestNussinovWithFaults(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(42, 41))
	cfg := faultConfig()
	cfg.ProcPartition = dag.Square(10)
	cfg.ThreadPartition = dag.Square(4)
	cfg.Faults = core.FaultPlan{
		CrashOnTask:       map[int]int{1: 2},
		PanicSubTask:      map[core.SubTaskID]bool{{Proc: 3, Sub: 1}: true},
		StallFirstAttempt: map[int32]time.Duration{5: 400 * time.Millisecond},
	}
	res, err := core.RunContext(context.Background(), nu.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "nussinov-faults", res.Matrix(), nu.Sequential())
}

// When every slave dies the run cannot finish; RunTimeout must turn the
// hang into an error instead of blocking forever.
func TestAllSlavesDeadAborts(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(32, 42), dp.RandomDNA(32, 43))
	cfg := faultConfig()
	cfg.Slaves = 2
	cfg.RunTimeout = 2 * time.Second
	cfg.Faults = core.FaultPlan{CrashOnTask: map[int]int{1: 1, 2: 1}}
	_, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err == nil {
		t.Fatal("run with all slaves dead returned success")
	}
}

// A slave that comes up after the master has finished and hung up — two
// fast workers can drain a small job before the third says hello — has
// nothing to report: its run is over, not failed.
func TestLateSlaveExitsCleanly(t *testing.T) {
	nw := comm.NewChanNetwork(2, comm.LatencyModel{})
	nw.Close()
	e := dp.NewEditDistance(dp.RandomDNA(32, 44), dp.RandomDNA(32, 45))
	if err := core.RunSlave(e.Problem(), faultConfig(), nw.Endpoint(1)); err != nil {
		t.Fatalf("slave whose master had already hung up: %v", err)
	}
}
