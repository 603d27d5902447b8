package server

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// TestStragglerSeriesCountEachJobOnce: a fleet job whose run has returned
// is folded into the service totals and, until it ages out of the fleet's
// retention window, still listed in the snapshot. The totals /metrics
// exports count it once while it is retained and the same after it ages
// out, and a job the manager is still running adds its live counters. The
// snapshots are built by hand: no real fleet retains a job with these
// counters on demand. /metrics, which reads the manager's real fleet,
// exports the folded totals.
func TestStragglerSeriesCountEachJobOnce(t *testing.T) {
	mgr := NewManager(ManagerConfig{}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()

	done := engine.Stats{Speculated: 4, SpecWon: 3, SpecWasted: 1, Steals: 6}
	mgr.metrics.addRunStats(core.Stats{Stats: done})
	running := engine.Stats{Speculated: 2, SpecWon: 1, SpecWasted: 1, Steals: 1}
	mgr.mu.Lock()
	mgr.running["job-2"] = &Job{ID: "job-2"}
	mgr.mu.Unlock()
	defer func() {
		mgr.mu.Lock()
		delete(mgr.running, "job-2")
		mgr.mu.Unlock()
	}()

	retainedDone := fleet.JobStatus{Name: "job-1", State: "done", Stats: done}
	live := fleet.JobStatus{Name: "job-2", State: "running", Stats: running}
	for _, tc := range []struct {
		name string
		snap fleet.Snapshot
		want engine.Stats
	}{
		{"retained", fleet.Snapshot{Jobs: []fleet.JobStatus{retainedDone}, Aggregate: done}, done},
		{"aged out", fleet.Snapshot{}, done},
		{"beside a running job", fleet.Snapshot{Jobs: []fleet.JobStatus{live, retainedDone}, Aggregate: engine.Stats{
			Speculated: 6, SpecWon: 4, SpecWasted: 2, Steals: 7}}, engine.Stats{Speculated: 6, SpecWon: 4, SpecWasted: 2, Steals: 7}},
	} {
		if got := mgr.stragglerTotals(tc.snap); got != tc.want {
			t.Errorf("%s: straggler totals %+v, want %+v", tc.name, got, tc.want)
		}
	}

	var b strings.Builder
	mgr.WriteMetrics(&b)
	for _, want := range []string{
		"easyhps_speculative_dispatched_total 4\n",
		"easyhps_speculative_won_total 3\n",
		"easyhps_speculative_wasted_total 1\n",
		"easyhps_steals_total 6\n",
		"easyhps_speculative_waste_ratio 0.250\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), b.String())
		}
	}
}
