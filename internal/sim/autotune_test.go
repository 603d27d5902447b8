package sim

import (
	"testing"
	"time"
)

// sweepOverrides reruns scenario s with auto off and the given hand-set
// batch cap and speculation multiplier — the "operator with a config
// file" baseline the self-tuning runs are judged against. Speculation
// and stealing stay on (auto implies them, so the hand-tuned baseline
// gets them too); partitions are whatever the scenario declares, since
// the acceptance contract hand-tunes only the batch/speculation knobs.
func sweepOverrides(t *testing.T, s *Scenario, batch int, mult float64) *Result {
	t.Helper()
	h := *s
	h.Opts.Pool.Auto = false
	h.Opts.Pool.Batch = batch
	h.Opts.Pool.Speculate = true
	h.Opts.Pool.Steal = true
	h.Opts.Pool.SpecMultiplier = mult
	res, err := h.Run(0)
	if err != nil {
		t.Fatalf("hand-tuned run batch=%d mult=%v: %v", batch, mult, err)
	}
	if res.RunErr != nil {
		t.Fatalf("hand-tuned run batch=%d mult=%v failed: %v", batch, mult, res.RunErr)
	}
	return res
}

func totalWasted(r *Result) int64 {
	var n int64
	for _, j := range r.Jobs {
		n += j.Stats().SpecWasted
	}
	return n
}

// TestAutoTuneMixedWorkload is the makespan half of the PR 10
// acceptance bar: on the pinned mixed workload (fine-grained SWGG plus
// a coarse Nussinov with an advisor-chosen partition, one 10x
// straggler) the auto run — no hand-set batch or speculation knobs —
// must reach at least 90% of the best makespan a hand-tuned sweep over
// batch x multiplier finds.
func TestAutoTuneMixedWorkload(t *testing.T) {
	s, err := LoadScenario("testdata/tune-mixed-auto.scenario")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Opts.Pool.Auto {
		t.Fatal("scenario must run under auto")
	}
	if s.Opts.Pool.Batch != 0 || s.Opts.Pool.Speculate || s.Opts.Pool.SpecMultiplier != 0 {
		t.Fatal("scenario must not hand-set batch or speculation knobs")
	}
	auto, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if auto.RunErr != nil {
		t.Fatalf("auto run failed: %v", auto.RunErr)
	}
	autoSpan := auto.Cluster.Elapsed()

	best := time.Duration(0)
	var bestBatch int
	var bestMult float64
	for _, b := range []int{1, 2, 4, 8} {
		for _, mult := range []float64{1.5, 2, 3} {
			span := sweepOverrides(t, s, b, mult).Cluster.Elapsed()
			if best == 0 || span < best {
				best, bestBatch, bestMult = span, b, mult
			}
		}
	}
	t.Logf("auto=%v, best hand-tuned=%v (batch=%d mult=%v)", autoSpan, best, bestBatch, bestMult)
	// "At least 90% of the best hand-tuned makespan": the auto run may
	// take at most best/0.9 virtual time.
	if limit := time.Duration(float64(best) / 0.9); autoSpan > limit {
		t.Fatalf("auto makespan %v exceeds 90%%-of-hand-tuned bound %v (best %v at batch=%d mult=%v)",
			autoSpan, limit, best, bestBatch, bestMult)
	}
}

// TestAutoCutsSpecWaste is the speculation half of the acceptance bar:
// on the mild-straggler workload the default thresholds provably waste
// backups (every one loses its race), and the self-tuning run cuts that
// waste to below the default's — without giving the makespan back.
func TestAutoCutsSpecWaste(t *testing.T) {
	s, err := LoadScenario("testdata/tune-mild-straggler.scenario")
	if err != nil {
		t.Fatal(err)
	}
	auto, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if auto.RunErr != nil {
		t.Fatalf("auto run failed: %v", auto.RunErr)
	}
	autoWasted := totalWasted(auto)

	var defWasted int64
	var defSpan time.Duration
	for _, b := range []int{1, 2, 4} {
		res := sweepOverrides(t, s, b, 0) // mult=0 takes the default 2x
		w := totalWasted(res)
		if w > defWasted || defSpan == 0 {
			defWasted = w
		}
		if defSpan == 0 || res.Cluster.Elapsed() < defSpan {
			defSpan = res.Cluster.Elapsed()
		}
	}
	t.Logf("wasted backups: auto=%d default=%d; makespan auto=%v best default=%v",
		autoWasted, defWasted, auto.Cluster.Elapsed(), defSpan)
	if defWasted == 0 {
		t.Fatal("default thresholds wasted no backups: the comparison is vacuous, pick a harder workload")
	}
	if autoWasted >= defWasted {
		t.Fatalf("auto wasted %d backups, default thresholds %d: no cut", autoWasted, defWasted)
	}
	// The waste cut must not be bought with a slower schedule.
	if limit := time.Duration(float64(defSpan) * 1.15); auto.Cluster.Elapsed() > limit {
		t.Fatalf("auto makespan %v gave back more than 15%% against the default %v", auto.Cluster.Elapsed(), defSpan)
	}
}
