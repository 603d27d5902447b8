package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// inputsDropped reports whether j holds neither its problem nor its
// finisher.
func inputsDropped(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.problem == core.Problem[int32]{} && j.finish == nil
}

// TestFinishedJobsDropInputs: every way a job turns terminal — computed,
// answered from the whole-job cache, settled as a coalesced follower,
// cancelled in the queue — leaves it without its problem and finisher,
// while its status and result read as before.
func TestFinishedJobsDropInputs(t *testing.T) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The leader stops at its first progress report until release, so the
	// follower and the queued job arrive while it is in flight.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	started := make(chan struct{}, 1)
	var once sync.Once
	mgr := NewManager(ManagerConfig{
		Run: core.Config{
			Slaves: 2, Threads: 2,
			ProcPartition: dag.Square(16), ThreadPartition: dag.Square(8),
			RunTimeout: 30 * time.Second,
			Progress: func(completed, total int) {
				once.Do(func() { started <- struct{}{} })
				<-gate
			},
		},
		Cache:         store,
		MaxConcurrent: 1,
		QueueDepth:    2,
	}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()

	spec := JobSpec{Kernel: "editdist", N: 48, Seed: 3}
	leader, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	select {
	case <-started:
	case <-timeout.C:
		t.Fatal("leader never started")
	}
	follower, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := mgr.Submit(JobSpec{Kernel: "lcs", N: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if inputsDropped(leader) || inputsDropped(follower) || inputsDropped(queued) {
		t.Fatal("a job still in flight has dropped its inputs")
	}
	if err := mgr.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if !inputsDropped(queued) {
		t.Error("job cancelled in the queue kept its inputs")
	}

	release()
	<-leader.Done()
	<-follower.Done()
	hit, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-hit.Done()

	a := dp.RandomSeq(dp.DNAAlphabet, 48, 3) // as the registry generates spec
	ref := dp.NewEditDistance(a, dp.MutateSeq(a, dp.DNAAlphabet, 0.15, 4))
	want := int64(ref.Distance(ref.Sequential()))
	for _, tc := range []struct {
		name   string
		j      *Job
		cached bool
	}{
		{"computed", leader, false},
		{"follower", follower, true},
		{"cache hit", hit, true},
	} {
		if !inputsDropped(tc.j) {
			t.Errorf("%s job kept its inputs after Done", tc.name)
		}
		st := tc.j.Status()
		if st.State != StateDone || st.Kernel != spec.Kernel || st.FinishedAt == nil {
			t.Errorf("%s job status = %+v", tc.name, st)
		}
		res, err := tc.j.Result()
		if err != nil || res.Value != want || res.Cached != tc.cached {
			t.Errorf("%s job result = %+v, %v; want value %d, cached %v", tc.name, res, err, want, tc.cached)
		}
	}
	if st := leader.Status(); st.Progress.Total == 0 || st.Progress.Completed != st.Progress.Total {
		t.Errorf("computed job progress = %+v", st.Progress)
	}
}
