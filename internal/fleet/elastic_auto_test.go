package fleet_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/tune"
)

// An -auto master over real TCP: no speculation/steal/batch knobs are
// set by hand, yet the run completes bit-identically to the sequential
// reference, both mitigation mechanisms are armed, the controller makes
// at least one adjustment (a run this size has dozens of progress ticks
// to grow the batch cap on), every recommendation respects the default
// limits, and each adjustment is visible as an EvTune trace event.
func TestAutoTunesOverTCP(t *testing.T) {
	prob, want, req := testProblem(t)
	opts := testOptions()
	opts.Auto = true
	opts.CheckInterval = 10 * time.Millisecond
	tr := trace.New()
	opts.Trace = tr
	f := startMaster(t, opts)
	h := fleet.NewHarness(registryBuild, f.Addr(), testWorkerOptions(), taskDelay(10*time.Millisecond))
	defer h.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := h.Add(ctx); err != nil {
			t.Fatal(err)
		}
	}

	res, err := runElastic(ctx, f, prob, req, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "auto", res.Store.Assemble(), want)
	if res.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d, want 64", res.Stats.Tasks)
	}

	snap, ok := f.TuneSnapshot()
	if !ok {
		t.Fatal("Auto master reports no tune snapshot")
	}
	lim := tune.DefaultLimits()
	if snap.BatchCap < lim.MinBatch || snap.BatchCap > lim.MaxBatch {
		t.Fatalf("batch cap %d outside [%d, %d]", snap.BatchCap, lim.MinBatch, lim.MaxBatch)
	}
	if snap.SpecQuantile < lim.MinQuantile || snap.SpecQuantile > lim.MaxQuantile {
		t.Fatalf("spec quantile %.3f outside [%.2f, %.2f]", snap.SpecQuantile, lim.MinQuantile, lim.MaxQuantile)
	}
	if snap.SpecMultiplier < lim.MinMultiplier || snap.SpecMultiplier > lim.MaxMultiplier {
		t.Fatalf("spec multiplier %.2f outside [%.1f, %.1f]", snap.SpecMultiplier, lim.MinMultiplier, lim.MaxMultiplier)
	}
	if snap.Adjustments == 0 {
		t.Fatal("controller made no adjustments over the whole run")
	}

	var tunes int64
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EvTune {
			tunes++
			if ev.Ready < lim.MinBatch || ev.Ready > lim.MaxBatch {
				t.Fatalf("EvTune batch cap %d outside [%d, %d]", ev.Ready, lim.MinBatch, lim.MaxBatch)
			}
		}
	}
	if tunes != snap.Adjustments {
		t.Fatalf("EvTune events = %d, adjustments = %d; every adjustment must be traced", tunes, snap.Adjustments)
	}
}
