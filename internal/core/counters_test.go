package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// TestInProcessExactCounters pins the wire protocol of a clean in-process
// run: each vertex costs exactly one task and one result frame, the frames
// Stats.Messages counts (server.RunStats counts the same). With no faults,
// no speculation and a batch of one, that is 2·V messages and V dispatches
// for a DAG of V vertices — the relation the benchmark's exact counters
// (edit-inproc's 512, swgg-inproc's 128) come from. The shapes are the
// three in-process workloads and the job service's small job, and two of
// them again as cached runs on a fresh store, which ship keyed: references
// change what a task carries but not how many messages carry it.
func TestInProcessExactCounters(t *testing.T) {
	const slaves = 2
	cases := []struct {
		name         string
		p            core.Problem[int32]
		proc, thread int
		delta        bool
	}{
		{"edit", dp.NewEditDistance(dp.RandomDNA(96, 1), dp.RandomDNA(96, 2)).Problem(), 16, 4, false},
		{"swgg", dp.NewSWGG(dp.RandomDNA(48, 3), dp.RandomDNA(48, 4)).Problem(), 12, 4, false},
		{"nussinov", dp.NewNussinov(dp.RandomRNA(64, 5)).Problem(), 16, 4, false},
		{"smalljob", dp.NewEditDistance(dp.RandomDNA(24, 6), dp.RandomDNA(24, 7)).Problem(), 8, 4, false},
		{"edit-delta", dp.NewEditDistance(dp.RandomDNA(96, 1), dp.RandomDNA(96, 2)).Problem(), 16, 4, true},
		{"swgg-delta", dp.NewSWGG(dp.RandomDNA(48, 3), dp.RandomDNA(48, 4)).Problem(), 12, 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.Config{
				Slaves:          slaves,
				Threads:         1,
				ProcPartition:   dag.Square(c.proc),
				ThreadPartition: dag.Square(c.thread),
				Policy:          core.PolicyDynamic,
				Batch:           1,
				RunTimeout:      time.Minute,
			}
			if c.delta {
				cfg = cached(t, cfg, c.name)
			}
			res, err := core.RunContext(context.Background(), c.p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			v := int64(dag.Build(c.p.Kernel.Pattern(), dag.MatrixGeometry(c.p.Size, cfg.ProcPartition)).N)
			st := res.Stats
			if st.Tasks != v || st.Dispatches != v {
				t.Fatalf("tasks = %d, dispatches = %d; want %d each", st.Tasks, st.Dispatches, v)
			}
			if want := 2 * v; st.Messages != want {
				t.Fatalf("messages = %d, want 2·%d vertices = %d", st.Messages, v, want)
			}
			if st.SubTasks != v { // at one thread a block is one sub-task
				t.Fatalf("sub-tasks = %d, want one per vertex, %d", st.SubTasks, v)
			}
			if st.Leaked != 0 { // the job's finish audit
				t.Fatalf("leaked = %d register or lease entries, want 0", st.Leaked)
			}
		})
	}
}

// With one slave on a cached run the slave computed every block a task
// reads, so every dependency travels as a reference to the whole block —
// a row or a column of it included — and nothing is shipped in full: the
// skip count is the DAG's dependency count.
func TestDeltaShippingOneSlaveSkipsEveryDependency(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(48, 11), dp.RandomDNA(48, 12))
	s := dp.NewSWGG(dp.RandomDNA(48, 13), dp.RandomDNA(48, 14))
	for _, c := range []struct {
		name string
		p    core.Problem[int32]
		want [][]int32
	}{{"edit", e.Problem(), e.Sequential()}, {"swgg", s.Problem(), s.Sequential()}} {
		cfg := core.Config{
			Slaves: 1, Threads: 1,
			ProcPartition:   dag.Square(12),
			ThreadPartition: dag.Square(4),
			RunTimeout:      time.Minute,
		}
		res, err := core.RunContext(context.Background(), c.p, cached(t, cfg, c.name))
		if err != nil {
			t.Fatal(err)
		}
		equalMatrices(t, c.name+"-one-slave", res.Matrix(), c.want)
		graph := dag.Build(c.p.Kernel.Pattern(), dag.MatrixGeometry(c.p.Size, cfg.ProcPartition))
		deps := int64(0)
		for _, v := range graph.Existing() {
			deps += int64(len(graph.Vertex(v).DataPre))
		}
		if st := res.Stats; st.BlocksSkipped != deps || st.BlocksShipped != 0 {
			t.Fatalf("%s: BlocksSkipped = %d, BlocksShipped = %d; want %d and 0", c.name, st.BlocksSkipped, st.BlocksShipped, deps)
		}
	}
}
