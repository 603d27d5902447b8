package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/tune"
)

// A fully hands-off in-process run: Auto on, no partition, batch or
// speculation knobs. The advisor picks the processor partition for the
// members live at submission — the slaves, whatever their threads — the
// tuner owns batch and speculation thresholds, and the result must still
// be bit-identical to the sequential reference.
func TestRunAutoMatchesSequential(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(96, 71), dp.RandomDNA(96, 72))
	s := dp.NewSWGG(dp.RandomDNA(64, 73), dp.RandomDNA(64, 74))
	for _, c := range []struct {
		name string
		p    core.Problem[int32]
		want [][]int32
	}{{"editdist", e.Problem(), e.Sequential()}, {"swgg", s.Problem(), s.Sequential()}} {
		cfg := core.Config{
			Slaves: 3, Threads: 2,
			Auto:       true,
			RunTimeout: time.Minute,
		}
		res, err := core.RunContext(context.Background(), c.p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		equalMatrices(t, c.name+"-auto", res.Matrix(), c.want)
		cm, _ := c.p.Kernel.(tune.CostModel)
		if got, want := res.Store.Geometry().Block, tune.AdvisePartition(c.p.Size.Rows, c.p.Size.Cols, cfg.Slaves, cm); got != want {
			t.Fatalf("%s: partition %v, want the advisor's %v for %d members", c.name, got, want, cfg.Slaves)
		}
		// Auto implies both mitigation mechanisms, whose counters may
		// legitimately be zero on a healthy run; the partition is the
		// observable effect.
		if res.Stats.Tasks < 1 {
			t.Fatalf("%s: tasks = %d", c.name, res.Stats.Tasks)
		}
	}
}
