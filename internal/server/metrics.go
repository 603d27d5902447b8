package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/tune"
)

// latencyBuckets are the upper bounds (seconds) of the per-job latency
// histogram, Prometheus-style with a +Inf catch-all.
var latencyBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// metrics is the service-level counter set behind GET /metrics. Job-state
// gauges are derived from the manager's live job table at exposition
// time; everything here is cumulative.
type metrics struct {
	submitted atomic.Int64 // jobs admitted into the queue
	rejected  atomic.Int64 // submissions refused with 429
	coalesced atomic.Int64 // submissions absorbed by an identical in-flight job

	// final[state] counts jobs that reached each terminal state.
	finalMu sync.Mutex
	final   map[State]int64

	// Run totals accumulated from completed runs' core.Stats.
	tasks      atomic.Int64
	subTasks   atomic.Int64
	redist     atomic.Int64
	messages   atomic.Int64
	payload    atomic.Int64
	dispatches atomic.Int64
	batchMsgs  atomic.Int64
	taskBytes  atomic.Int64
	speculated atomic.Int64
	specWon    atomic.Int64
	specWasted atomic.Int64
	steals     atomic.Int64

	// Per-job latency histogram over jobs that actually ran.
	histMu    sync.Mutex
	histCount [12]int64 // len(latencyBuckets)+1, last is +Inf
	histSum   float64
	histN     int64
}

func newMetrics() *metrics {
	return &metrics{final: make(map[State]int64)}
}

// observeFinal records a terminal transition. latency is zero for jobs
// cancelled before they ran; those count toward the state totals but not
// the latency histogram.
func (x *metrics) observeFinal(s State, latency time.Duration) {
	x.finalMu.Lock()
	x.final[s]++
	x.finalMu.Unlock()
	if latency <= 0 {
		return
	}
	sec := latency.Seconds()
	x.histMu.Lock()
	idx := sort.SearchFloat64s(latencyBuckets, sec)
	x.histCount[idx]++
	x.histSum += sec
	x.histN++
	x.histMu.Unlock()
}

// addRunStats folds one finished run's scheduling statistics into the
// service totals (sub-task throughput, traffic).
func (x *metrics) addRunStats(s core.Stats) {
	x.tasks.Add(s.Tasks)
	x.subTasks.Add(s.SubTasks)
	x.redist.Add(s.Redistributions)
	x.messages.Add(s.Messages)
	x.payload.Add(s.PayloadBytes)
	x.dispatches.Add(s.Dispatches)
	x.batchMsgs.Add(s.BatchMessages)
	x.taskBytes.Add(s.TaskBytes)
	x.speculated.Add(s.Speculated)
	x.specWon.Add(s.SpecWon)
	x.specWasted.Add(s.SpecWasted)
	x.steals.Add(s.Steals)
}

// WriteMetrics writes the text exposition (Prometheus-compatible format)
// of the manager's metrics.
func (m *Manager) WriteMetrics(w io.Writer) {
	x := m.metrics

	m.mu.Lock()
	byState := make(map[State]int64)
	for _, j := range m.jobs {
		j.mu.Lock()
		byState[j.state]++
		j.mu.Unlock()
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP easyhps_jobs Current jobs by state.\n# TYPE easyhps_jobs gauge\n")
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "easyhps_jobs{state=%q} %d\n", s, byState[s])
	}

	x.finalMu.Lock()
	done, failed, cancelled := x.final[StateDone], x.final[StateFailed], x.final[StateCancelled]
	x.finalMu.Unlock()
	fmt.Fprintf(w, "# HELP easyhps_jobs_finished_total Jobs that reached a terminal state.\n# TYPE easyhps_jobs_finished_total counter\n")
	fmt.Fprintf(w, "easyhps_jobs_finished_total{state=\"done\"} %d\n", done)
	fmt.Fprintf(w, "easyhps_jobs_finished_total{state=\"failed\"} %d\n", failed)
	fmt.Fprintf(w, "easyhps_jobs_finished_total{state=\"cancelled\"} %d\n", cancelled)

	fmt.Fprintf(w, "# HELP easyhps_jobs_submitted_total Jobs admitted into the queue.\n# TYPE easyhps_jobs_submitted_total counter\neasyhps_jobs_submitted_total %d\n", x.submitted.Load())
	fmt.Fprintf(w, "# HELP easyhps_jobs_rejected_total Submissions refused by admission control.\n# TYPE easyhps_jobs_rejected_total counter\neasyhps_jobs_rejected_total %d\n", x.rejected.Load())
	fmt.Fprintf(w, "# HELP easyhps_jobs_coalesced_total Submissions absorbed by an identical in-flight job (single-flight).\n# TYPE easyhps_jobs_coalesced_total counter\neasyhps_jobs_coalesced_total %d\n", x.coalesced.Load())
	fmt.Fprintf(w, "# HELP easyhps_queue_depth Jobs waiting for a run slot.\n# TYPE easyhps_queue_depth gauge\neasyhps_queue_depth %d\n", m.QueueDepth())
	fmt.Fprintf(w, "# HELP easyhps_queue_capacity Size of the bounded submission queue.\n# TYPE easyhps_queue_capacity gauge\neasyhps_queue_capacity %d\n", m.cfg.QueueDepth)
	fmt.Fprintf(w, "# HELP easyhps_run_slots Maximum concurrently running jobs.\n# TYPE easyhps_run_slots gauge\neasyhps_run_slots %d\n", m.cfg.MaxConcurrent)

	fmt.Fprintf(w, "# HELP easyhps_tasks_total Processor-level sub-tasks completed across all runs.\n# TYPE easyhps_tasks_total counter\neasyhps_tasks_total %d\n", x.tasks.Load())
	fmt.Fprintf(w, "# HELP easyhps_subtasks_total Thread-level sub-sub-tasks executed across all runs.\n# TYPE easyhps_subtasks_total counter\neasyhps_subtasks_total %d\n", x.subTasks.Load())
	fmt.Fprintf(w, "# HELP easyhps_redistributions_total Processor-level timeout recoveries across all runs.\n# TYPE easyhps_redistributions_total counter\neasyhps_redistributions_total %d\n", x.redist.Load())
	fmt.Fprintf(w, "# HELP easyhps_messages_total Transport messages across all runs.\n# TYPE easyhps_messages_total counter\neasyhps_messages_total %d\n", x.messages.Load())
	fmt.Fprintf(w, "# HELP easyhps_payload_bytes_total Transport payload bytes across all runs.\n# TYPE easyhps_payload_bytes_total counter\neasyhps_payload_bytes_total %d\n", x.payload.Load())

	dispatches, batchMsgs, taskBytes := x.dispatches.Load(), x.batchMsgs.Load(), x.taskBytes.Load()
	fmt.Fprintf(w, "# HELP easyhps_dispatches_total Vertices dispatched to workers across all runs.\n# TYPE easyhps_dispatches_total counter\neasyhps_dispatches_total %d\n", dispatches)
	fmt.Fprintf(w, "# HELP easyhps_batch_messages_total Multi-vertex task-batch messages sent across all runs.\n# TYPE easyhps_batch_messages_total counter\neasyhps_batch_messages_total %d\n", batchMsgs)
	fmt.Fprintf(w, "# HELP easyhps_task_payload_bytes_total Task payload bytes shipped to workers across all runs.\n# TYPE easyhps_task_payload_bytes_total counter\neasyhps_task_payload_bytes_total %d\n", taskBytes)
	// Derived gauges for dashboards: an upper bound on the realized batch
	// size (vertices over batch messages; exact when every message is a
	// batch) and payload bytes per dispatched vertex.
	if batchMsgs > 0 {
		fmt.Fprintf(w, "# HELP easyhps_dispatch_batch_size Mean vertices per task-batch message across all runs.\n# TYPE easyhps_dispatch_batch_size gauge\neasyhps_dispatch_batch_size %.3f\n", float64(dispatches)/float64(batchMsgs))
	} else {
		fmt.Fprintf(w, "# HELP easyhps_dispatch_batch_size Mean vertices per task-batch message across all runs.\n# TYPE easyhps_dispatch_batch_size gauge\neasyhps_dispatch_batch_size 1\n")
	}
	if dispatches > 0 {
		fmt.Fprintf(w, "# HELP easyhps_dispatch_bytes_per_vertex Mean task payload bytes per dispatched vertex across all runs.\n# TYPE easyhps_dispatch_bytes_per_vertex gauge\neasyhps_dispatch_bytes_per_vertex %.1f\n", float64(taskBytes)/float64(dispatches))
	} else {
		fmt.Fprintf(w, "# HELP easyhps_dispatch_bytes_per_vertex Mean task payload bytes per dispatched vertex across all runs.\n# TYPE easyhps_dispatch_bytes_per_vertex gauge\neasyhps_dispatch_bytes_per_vertex 0\n")
	}

	snap := m.fleet.Snapshot()
	st := m.stragglerTotals(snap)
	writeMembership(w, snap.Members)
	writeFleet(w, snap)

	fmt.Fprintf(w, "# HELP easyhps_speculative_dispatched_total Speculative backup attempts dispatched.\n# TYPE easyhps_speculative_dispatched_total counter\neasyhps_speculative_dispatched_total %d\n", st.Speculated)
	fmt.Fprintf(w, "# HELP easyhps_speculative_won_total Speculative backups whose result beat the original.\n# TYPE easyhps_speculative_won_total counter\neasyhps_speculative_won_total %d\n", st.SpecWon)
	fmt.Fprintf(w, "# HELP easyhps_speculative_wasted_total Speculative backups that lost the race or were cancelled.\n# TYPE easyhps_speculative_wasted_total counter\neasyhps_speculative_wasted_total %d\n", st.SpecWasted)
	fmt.Fprintf(w, "# HELP easyhps_steals_total Queued sub-tasks stolen from loaded workers for starved ones.\n# TYPE easyhps_steals_total counter\neasyhps_steals_total %d\n", st.Steals)
	if st.Speculated > 0 {
		fmt.Fprintf(w, "# HELP easyhps_speculative_waste_ratio Wasted fraction of dispatched speculative backups.\n# TYPE easyhps_speculative_waste_ratio gauge\neasyhps_speculative_waste_ratio %.3f\n", float64(st.SpecWasted)/float64(st.Speculated))
	} else {
		fmt.Fprintf(w, "# HELP easyhps_speculative_waste_ratio Wasted fraction of dispatched speculative backups.\n# TYPE easyhps_speculative_waste_ratio gauge\neasyhps_speculative_waste_ratio 0\n")
	}

	if s, ok := m.fleet.TuneSnapshot(); ok {
		writeTune(w, s)
	}

	if m.cfg.Cache != nil {
		writeCache(w, m.cfg.Cache.Snapshot())
	}

	x.histMu.Lock()
	counts, sum, n := x.histCount, x.histSum, x.histN
	x.histMu.Unlock()
	writeLatencyHistogram(w, counts, sum, n)
}

// stragglerTotals are the straggler-mitigation totals, each job counted
// once: from the fleet snapshot while this manager runs it, and from the
// totals run folds when its run returns. A retained finished job of the
// snapshot is already in the totals, so it leaves the live share; the fold
// and the running-table delete happen under m.mu, so no job is ever in
// neither.
func (m *Manager) stragglerTotals(snap fleet.Snapshot) engine.Stats {
	x := m.metrics
	live := snap.Aggregate
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, js := range snap.Jobs {
		if m.running[js.Name] == nil {
			live.Speculated -= js.Stats.Speculated
			live.SpecWon -= js.Stats.SpecWon
			live.SpecWasted -= js.Stats.SpecWasted
			live.Steals -= js.Stats.Steals
		}
	}
	return engine.Stats{
		Speculated: x.speculated.Load() + live.Speculated,
		SpecWon:    x.specWon.Load() + live.SpecWon,
		SpecWasted: x.specWasted.Load() + live.SpecWasted,
		Steals:     x.steals.Load() + live.Steals,
	}
}

// writeCache emits the content-addressed result store's series, labelled
// by consumer layer (server = whole-job memoization, master = per-block
// memoization, wire = content-keyed shipping suppression).
func writeCache(w io.Writer, s cas.Stats) {
	fmt.Fprintf(w, "# HELP easyhps_cache_hits_total Result-cache hits by consumer layer.\n# TYPE easyhps_cache_hits_total counter\n")
	for _, l := range []cas.Layer{cas.LayerServer, cas.LayerMaster, cas.LayerWire} {
		fmt.Fprintf(w, "easyhps_cache_hits_total{layer=%q} %d\n", l, s.Hits[l])
	}
	fmt.Fprintf(w, "# HELP easyhps_cache_misses_total Result-cache misses by consumer layer.\n# TYPE easyhps_cache_misses_total counter\n")
	for _, l := range []cas.Layer{cas.LayerServer, cas.LayerMaster, cas.LayerWire} {
		fmt.Fprintf(w, "easyhps_cache_misses_total{layer=%q} %d\n", l, s.Misses[l])
	}
	fmt.Fprintf(w, "# HELP easyhps_cache_evictions_total Result-cache entries dropped by the LRU byte budget.\n# TYPE easyhps_cache_evictions_total counter\neasyhps_cache_evictions_total %d\n", s.Evictions)
	fmt.Fprintf(w, "# HELP easyhps_cache_bytes Resident result-cache payload bytes.\n# TYPE easyhps_cache_bytes gauge\neasyhps_cache_bytes %d\n", s.Bytes)
	fmt.Fprintf(w, "# HELP easyhps_cache_entries Resident result-cache entries, blocks and whole-job results.\n# TYPE easyhps_cache_entries gauge\neasyhps_cache_entries %d\n", s.Entries)
}

// writeMembership emits the fleet's elastic-membership series (named
// easyhps_cluster_*: the members of an elastic cluster, core.Registry).
func writeMembership(w io.Writer, s core.Snapshot) {
	fmt.Fprintf(w, "# HELP easyhps_cluster_members Elastic cluster members by state.\n# TYPE easyhps_cluster_members gauge\n")
	for _, state := range []string{"active", "suspect", "dead", "left"} {
		fmt.Fprintf(w, "easyhps_cluster_members{state=%q} %d\n", state, s.States[state])
	}
	fmt.Fprintf(w, "# HELP easyhps_cluster_joins_total Workers admitted into the elastic cluster.\n# TYPE easyhps_cluster_joins_total counter\neasyhps_cluster_joins_total %d\n", s.Joins)
	fmt.Fprintf(w, "# HELP easyhps_cluster_leaves_total Graceful departures from the elastic cluster.\n# TYPE easyhps_cluster_leaves_total counter\neasyhps_cluster_leaves_total %d\n", s.Leaves)
	fmt.Fprintf(w, "# HELP easyhps_cluster_deaths_total Members declared dead (heartbeat loss or connection failure).\n# TYPE easyhps_cluster_deaths_total counter\neasyhps_cluster_deaths_total %d\n", s.Deaths)
	fmt.Fprintf(w, "# HELP easyhps_cluster_leases_revoked_total Task leases revoked by member death or leave.\n# TYPE easyhps_cluster_leases_revoked_total counter\neasyhps_cluster_leases_revoked_total %d\n", s.LeasesRevoked)
}

// writeFleet emits the shared-fleet section: job-state counts, the
// autoscaling signals (aggregate queue depth, hunger count, per-job
// deficit), and per-job labelled progress and straggler counters.
func writeFleet(w io.Writer, snap fleet.Snapshot) {
	fmt.Fprintf(w, "# HELP easyhps_fleet_jobs Fleet jobs by state (finished states bounded by the retention window).\n# TYPE easyhps_fleet_jobs gauge\n")
	for _, state := range []string{"running", "done", "failed"} {
		fmt.Fprintf(w, "easyhps_fleet_jobs{state=%q} %d\n", state, snap.States[state])
	}
	fmt.Fprintf(w, "# HELP easyhps_fleet_queue_depth Computable vertices queued across running jobs — work the pool has not absorbed.\n# TYPE easyhps_fleet_queue_depth gauge\neasyhps_fleet_queue_depth %d\n", snap.QueueDepth)
	fmt.Fprintf(w, "# HELP easyhps_fleet_hunger_total Control-tick hunger passes that moved queued backlog toward a worker whose draw came back empty.\n# TYPE easyhps_fleet_hunger_total counter\neasyhps_fleet_hunger_total %d\n", snap.Hungers)

	if len(snap.Jobs) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP easyhps_job_vertices_done Completed DAG vertices per fleet job.\n# TYPE easyhps_job_vertices_done gauge\n")
	for _, j := range snap.Jobs {
		fmt.Fprintf(w, "easyhps_job_vertices_done{job=%q} %d\n", j.Name, j.Done)
	}
	fmt.Fprintf(w, "# HELP easyhps_job_vertices_total DAG size per fleet job.\n# TYPE easyhps_job_vertices_total gauge\n")
	for _, j := range snap.Jobs {
		fmt.Fprintf(w, "easyhps_job_vertices_total{job=%q} %d\n", j.Name, j.Total)
	}
	fmt.Fprintf(w, "# HELP easyhps_job_deficit Fair-share service debt per running fleet job (normalized dispatches behind the most-served job).\n# TYPE easyhps_job_deficit gauge\n")
	for _, j := range snap.Jobs {
		fmt.Fprintf(w, "easyhps_job_deficit{job=%q} %g\n", j.Name, j.Deficit)
	}
	fmt.Fprintf(w, "# HELP easyhps_job_speculated_total Speculative backup attempts dispatched per fleet job.\n# TYPE easyhps_job_speculated_total counter\n")
	for _, j := range snap.Jobs {
		fmt.Fprintf(w, "easyhps_job_speculated_total{job=%q} %d\n", j.Name, j.Stats.Speculated)
	}
	fmt.Fprintf(w, "# HELP easyhps_job_steals_total Vertices stolen toward hungry workers per fleet job.\n# TYPE easyhps_job_steals_total counter\n")
	for _, j := range snap.Jobs {
		fmt.Fprintf(w, "easyhps_job_steals_total{job=%q} %d\n", j.Name, j.Stats.Steals)
	}
	fmt.Fprintf(w, "# HELP easyhps_job_redistributions_total Overtime redistributions per fleet job.\n# TYPE easyhps_job_redistributions_total counter\n")
	for _, j := range snap.Jobs {
		fmt.Fprintf(w, "easyhps_job_redistributions_total{job=%q} %d\n", j.Name, j.Stats.Redistributions)
	}
}

// writeTune emits the self-tuning controller's current recommendations —
// the knobs the runtime is actually scheduling with right now.
func writeTune(w io.Writer, s tune.Snapshot) {
	fmt.Fprintf(w, "# HELP easyhps_tune_batch_cap Dispatch batch cap currently recommended by the self-tuner.\n# TYPE easyhps_tune_batch_cap gauge\neasyhps_tune_batch_cap %d\n", s.BatchCap)
	fmt.Fprintf(w, "# HELP easyhps_tune_spec_quantile Runtime-profile quantile currently used for speculation thresholds.\n# TYPE easyhps_tune_spec_quantile gauge\neasyhps_tune_spec_quantile %.3f\n", s.SpecQuantile)
	fmt.Fprintf(w, "# HELP easyhps_tune_spec_multiplier Multiplier currently applied to the speculation quantile.\n# TYPE easyhps_tune_spec_multiplier gauge\neasyhps_tune_spec_multiplier %.3f\n", s.SpecMultiplier)
	fmt.Fprintf(w, "# HELP easyhps_tune_adjustments_total Control ticks that changed a recommendation.\n# TYPE easyhps_tune_adjustments_total counter\neasyhps_tune_adjustments_total %d\n", s.Adjustments)
}

// writeLatencyHistogram emits the per-job latency histogram.
func writeLatencyHistogram(w io.Writer, counts [12]int64, sum float64, n int64) {
	fmt.Fprintf(w, "# HELP easyhps_job_latency_seconds Run latency of finished jobs.\n# TYPE easyhps_job_latency_seconds histogram\n")
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += counts[i]
		fmt.Fprintf(w, "easyhps_job_latency_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += counts[len(latencyBuckets)]
	fmt.Fprintf(w, "easyhps_job_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "easyhps_job_latency_seconds_sum %g\n", sum)
	fmt.Fprintf(w, "easyhps_job_latency_seconds_count %d\n", n)
}
