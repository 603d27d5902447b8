package server

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
)

// awaitDone waits for j to turn terminal and fails unless it is done.
func awaitDone(t *testing.T, j *Job) {
	t.Helper()
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case <-j.Done():
	case <-timeout.C:
		t.Fatalf("%s never finished", j.ID)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("%s finished %s (%s), want done", j.ID, st.State, st.Error)
	}
}

// TestInProcessPriorityDispatchedFirst: without a fleet attached, the
// manager's own fleet schedules by Priority. One in-process member is held
// inside the delivery of a one-vertex job's result while a low and then a
// high priority job enter the pool; once it is let go, every vertex of the
// high one is dispatched before any of the low one's, read from the two
// jobs' traces.
func TestInProcessPriorityDispatchedFirst(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	held := make(chan struct{})
	hold := sync.OnceFunc(func() { close(held) })
	// On slowed kernels a vertex of 256 cells takes about 25 ms, so
	// consecutive dispatches of the one member lie far apart on the wall
	// clock.
	mgr := NewManager(ManagerConfig{
		Run: core.Config{
			Slaves: 1, Threads: 1,
			ProcPartition: dag.Square(16), ThreadPartition: dag.Square(16),
			RunTimeout: 30 * time.Second,
			Progress: func(completed, total int) {
				if completed == 1 && total == 1 { // the one-vertex job, on the member
					hold()
					<-gate
				}
			},
		},
		MaxConcurrent: 3,
		QueueDepth:    4,
	}, NewSlowRegistry(100*time.Microsecond))
	defer func() { _ = mgr.Shutdown(context.Background()) }()

	first, _, err := mgr.Submit(JobSpec{Kernel: "editdist", N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	low, _, err := mgr.Submit(JobSpec{Kernel: "editdist", N: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	high, _, err := mgr.Submit(JobSpec{Kernel: "lcs", N: 48, Seed: 3, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both wait in the pool, with their roots queued, before the member is
	// let go.
	deadline := time.Now().Add(10 * time.Second)
	for queued := 0; queued < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the two jobs never reached the pool")
		}
		queued = 0
		for _, js := range mgr.fleet.Snapshot().Jobs {
			if (js.Name == low.ID || js.Name == high.ID) && js.Ready > 0 {
				queued++
			}
		}
		runtime.Gosched()
	}
	release()
	for _, j := range []*Job{first, low, high} {
		awaitDone(t, j)
	}

	// A job's trace is timed from its start, which follows its StartedAt.
	dispatches := func(j *Job) []time.Time {
		evs, err := mgr.Trace(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var at []time.Time
		for _, e := range evs {
			if e.Kind == "dispatch" {
				at = append(at, j.Status().StartedAt.Add(time.Duration(e.TMicros)*time.Microsecond))
			}
		}
		return at
	}
	hi, lo := dispatches(high), dispatches(low)
	if len(hi) != 9 || len(lo) != 4 {
		t.Fatalf("dispatches: high %d, low %d; want 9 and 4", len(hi), len(lo))
	}
	if last, firstLow := hi[len(hi)-1], lo[0]; !last.Before(firstLow) {
		t.Fatalf("the low-priority job was dispatched at %v, before the high-priority one's last vertex at %v",
			firstLow.Format(time.StampMicro), last.Format(time.StampMicro))
	}
}

// TestInProcessGoroutinesConstant: an idle manager has the same goroutines
// after a hundred jobs as after one — its in-process members, their
// senders and the fleet's tick live as long as it does, and a job starts
// none that outlive it — and the members that ran the hundred are the two
// it started with.
func TestInProcessGoroutinesConstant(t *testing.T) {
	mgr := NewManager(ManagerConfig{
		Run: core.Config{
			Slaves: 2, Threads: 2,
			ProcPartition: dag.Square(8), ThreadPartition: dag.Square(4),
			RunTimeout: 30 * time.Second,
		},
		MaxConcurrent: 2,
		QueueDepth:    4,
	}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()
	seed := int64(0)
	run := func(n int) {
		for range n {
			seed++
			j, _, err := mgr.Submit(JobSpec{Kernel: "editdist", N: 24, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			awaitDone(t, j)
		}
	}
	// settled is the goroutine count once it no longer exceeds want: a
	// thread-level helper of the last job returns just after its block does.
	settled := func(want int) int {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= want || time.Now().After(deadline) {
				return n
			}
			runtime.Gosched()
		}
	}
	// A member's worker starts its beacon as it begins to serve, which may
	// come after the first job is done: count from the first job after
	// which both members have computed.
	jobs := 0
	for served := false; !served; jobs++ {
		if jobs == 100 {
			t.Fatal("a member computed nothing in 100 jobs")
		}
		run(1)
		served = true
		for _, mb := range mgr.fleet.Registry().Members() {
			served = served && mb.Completed > 0
		}
	}
	one := runtime.NumGoroutine()
	run(99)
	if hundred := settled(one); hundred > one {
		t.Fatalf("%d goroutines after 100 jobs, %d after one", hundred, one)
	}
	// The same two members ran all of them: none joined per job.
	var text strings.Builder
	mgr.WriteMetrics(&text)
	if !strings.Contains(text.String(), "easyhps_cluster_joins_total 2\n") {
		t.Fatalf("members joined per job:\n%s", text.String())
	}
}

// TestInProcessExactCounters: an in-process job keeps its run counters, and
// a clean one counts the same on every run — a task and a result frame per
// dispatched vertex at Batch 1, one dispatch per vertex, the sub-tasks of
// every block once.
func TestInProcessExactCounters(t *testing.T) {
	mgr := NewManager(ManagerConfig{
		Run: core.Config{
			Slaves: 2, Threads: 2, Batch: 1,
			ProcPartition: dag.Square(8), ThreadPartition: dag.Square(4),
			RunTimeout: 30 * time.Second,
		},
		MaxConcurrent: 1,
	}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()
	var first RunStats
	for i := range 3 {
		j, _, err := mgr.Submit(JobSpec{Kernel: "swgg", N: 32, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, j)
		res, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		s.ElapsedSeconds = 0
		// 32x32 cells in 8x8 blocks: 16 vertices of 4 sub-blocks each.
		if s.Tasks != 16 || s.Dispatches != 16 || s.SubTasks != 64 || s.Messages != 2*s.Dispatches || s.PayloadBytes <= s.TaskBytes {
			t.Fatalf("run %d: stats %+v, want 16 tasks and dispatches, 64 sub-tasks, two frames a dispatch", i, s)
		}
		if i == 0 {
			first = s
		} else if s != first {
			t.Fatalf("run %d counted %+v, run 0 %+v", i, s, first)
		}
	}
}
