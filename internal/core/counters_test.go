package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// TestFixedRankExactCounters pins the wire protocol of a clean fixed-rank
// run: each slave says idle once and is told to end once, and each vertex
// costs exactly one task and one result message. With no faults, no
// speculation and a batch of one, that is 2·V + 2·Slaves messages and V
// dispatches for a DAG of V vertices — the relation the benchmark's exact
// counters (edit-inproc's 516, swgg-inproc's 132) come from. The shapes
// are the three in-process workloads and the job service's small job.
func TestFixedRankExactCounters(t *testing.T) {
	const slaves = 2
	cases := []struct {
		name         string
		p            core.Problem[int32]
		proc, thread int
	}{
		{"edit", dp.NewEditDistance(dp.RandomDNA(96, 1), dp.RandomDNA(96, 2)).Problem(), 16, 4},
		{"swgg", dp.NewSWGG(dp.RandomDNA(48, 3), dp.RandomDNA(48, 4)).Problem(), 12, 4},
		{"nussinov", dp.NewNussinov(dp.RandomRNA(64, 5)).Problem(), 16, 4},
		{"smalljob", dp.NewEditDistance(dp.RandomDNA(24, 6), dp.RandomDNA(24, 7)).Problem(), 8, 4},
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
			res, err := core.RunContext(context.Background(), c.p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			v := int64(dag.Build(c.p.Kernel.Pattern(), dag.MatrixGeometry(c.p.Size, cfg.ProcPartition)).N)
			st := res.Stats
			if st.Tasks != v || st.Dispatches != v {
				t.Fatalf("tasks = %d, dispatches = %d; want %d each", st.Tasks, st.Dispatches, v)
			}
			if want := 2*v + 2*slaves; st.Messages != want {
				t.Fatalf("messages = %d, want 2·%d vertices + 2·%d slaves = %d", st.Messages, v, slaves, want)
			}
		})
	}
}
