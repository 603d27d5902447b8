package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
)

// BenchmarkScale runs one fixed scenario at a growing member count: two
// edit-distance jobs, n=1024 in 16x16 blocks (4096 vertices each), at
// batch 4, a nominal 1ms a vertex and a 25ms control tick, with and without
// stealing. It reports the wall time the simulator spends per vertex, so
// the master's cost per event is a reading: flat in the member count when
// idle members cost the master nothing.
func BenchmarkScale(b *testing.B) {
	var specs []JobSpec
	vertices := 0
	for seed := int64(1); seed <= 2; seed++ {
		p, _, err := BuildProblem("editdist", 1024, seed)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, JobSpec{Name: fmt.Sprint("e", seed), Problem: p, Proc: dag.Square(16)})
		vertices += (1024 / 16) * (1024 / 16)
	}
	for _, steal := range []bool{false, true} {
		for _, members := range []int{4, 50, 500, 2000, 8000} {
			b.Run(fmt.Sprintf("steal=%v/members=%d", steal, members), func(b *testing.B) {
				for range b.N {
					c := New(Options{Workers: members, Seed: 1, Cost: time.Millisecond,
						Pool: engine.PoolConfig{Batch: 4, CheckInterval: 25 * time.Millisecond, Steal: steal}})
					for _, s := range specs {
						if _, err := c.Submit(0, s); err != nil {
							b.Fatal(err)
						}
					}
					if err := c.Run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vertices), "ns/vertex")
			})
		}
	}
}
