package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// BenchmarkInProcessScale runs RunContext on edit distance 1024² in 16²
// blocks — 4096 vertices, at one thread a member — at 2 and at 512
// in-process members, and reports the best job wall of its runs: a master
// whose cost per event grows with its idle members shows here as the 512
// reading pulling away from the 2.
func BenchmarkInProcessScale(b *testing.B) {
	e := dp.NewEditDistance(dp.RandomDNA(1024, 1), dp.RandomDNA(1024, 2))
	for _, members := range []int{2, 512} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			best := time.Duration(math.MaxInt64)
			for range b.N {
				res, err := core.RunContext(context.Background(), e.Problem(), core.Config{Slaves: members, Threads: 1, ProcPartition: dag.Square(16)})
				if err != nil {
					b.Fatal(err)
				}
				best = min(best, res.Stats.Elapsed)
			}
			b.ReportMetric(float64(best.Microseconds())/1e3, "best-ms")
		})
	}
}
