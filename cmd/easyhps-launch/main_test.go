package main

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/server"
)

// launch is one run of the tool: a fleet on loopback, a quorum of two
// worker processes' loops (fleet.RunWorker over the kernel table, as
// easyhps-worker runs it) and runJob with the checkpoint file ckpt. The
// fleet closes before launch returns, dismissing the workers.
func launch(t *testing.T, job server.JobSpec, proc dag.Size, ckpt string) *fleet.Result[int32] {
	t.Helper()
	prob, _, err := server.NewRegistry().Build(job, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New[int32](fleet.Options{Addr: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var workers sync.WaitGroup
	build := server.RegistryBuilder(server.NewRegistry())
	for range 2 {
		workers.Add(1)
		go func() {
			defer workers.Done()
			err := fleet.RunWorker(context.Background(), build, fleet.WorkerOptions{Addr: f.Addr(), Run: core.Config{Threads: 2}})
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	res, err := runJob(context.Background(), f, prob, job.Request(proc, dag.Square(4)), 2, 30*time.Second, ckpt)
	f.Close()
	workers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The tool's one mode end to end: a run over two workers answers what the
// kernel's sequential loop answers, and a rerun on the same checkpoint file
// restores every vertex and dispatches nothing.
func TestLaunchRunsAndResumes(t *testing.T) {
	job := server.JobSpec{Kernel: "editdist", N: 64, Seed: 51}
	proc := dag.Square(8)
	prob, _, err := server.NewRegistry().Build(job, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	want := prob.Kernel.(interface{ Sequential() [][]int32 }).Sequential()
	vertices := int64(dag.Build(prob.Kernel.Pattern(), dag.MatrixGeometry(prob.Size, proc)).N)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	check := func(run string, got [][]int32) {
		t.Helper()
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: [%d][%d] = %d, sequential reference %d", run, i, j, got[i][j], want[i][j])
				}
			}
		}
	}

	first := launch(t, job, proc, ckpt)
	check("first run", first.Store.Assemble())
	if first.Stats.Tasks != vertices {
		t.Fatalf("first run completed %d vertices, want %d", first.Stats.Tasks, vertices)
	}

	again := launch(t, job, proc, ckpt)
	check("rerun", again.Store.Assemble())
	if st := again.Stats; st.Restored != vertices || st.Dispatches != 0 {
		t.Fatalf("rerun: restored %d, dispatches %d; want %d restored and no dispatch", st.Restored, st.Dispatches, vertices)
	}
}
