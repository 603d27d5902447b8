package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// TestStragglerSeriesCountEachJobOnce: a fleet job whose run has returned
// is folded into the service totals and, until it ages out of the fleet's
// retention window, still listed in the snapshot. /metrics counts it once
// while it is retained and the same after it ages out, and a job the
// manager is still running adds its live counters.
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
		mgr.SetFleetStats(func() fleet.Snapshot { return tc.snap })
		var b strings.Builder
		mgr.WriteMetrics(&b)
		for _, want := range []string{
			fmt.Sprintf("easyhps_speculative_dispatched_total %d\n", tc.want.Speculated),
			fmt.Sprintf("easyhps_speculative_won_total %d\n", tc.want.SpecWon),
			fmt.Sprintf("easyhps_speculative_wasted_total %d\n", tc.want.SpecWasted),
			fmt.Sprintf("easyhps_steals_total %d\n", tc.want.Steals),
		} {
			if !strings.Contains(b.String(), want) {
				t.Errorf("%s: metrics missing %q", tc.name, strings.TrimSpace(want))
			}
		}
	}
}
