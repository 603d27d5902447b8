package main

import "time"

// counterMetrics turns the untraced phase's counts — read from the
// system's own statistics, so they repeat exactly — into per-job figures.
// A count the workload declares absent is left for zeroAbsent.
func counterMetrics(p metrics, m *measured, absent []string) {
	set := func(name string, v float64) {
		if !hasAnyPrefix(name, absent) {
			p.set(name, v)
		}
	}
	jobs, reps := float64(m.jobs), float64(len(m.samples))
	c := m.counts
	set("comm.messages_per_job", float64(c.messages)/jobs)
	set("comm.payload_mb_per_job", float64(c.payloadBytes)/mb/jobs)
	set("core.task_mb_per_job", float64(c.taskBytes)/mb/jobs)
	set("core.dispatches_per_job", float64(c.dispatches)/jobs)
	set("core.subtasks_per_job", float64(c.subTasks)/jobs)

	set("cas.master_hits", float64(c.casMasterHits)/reps)
	set("cas.master_misses", float64(c.casMasterMisses)/reps)
	set("cas.wire_hits", float64(c.casWireHits)/reps)
	set("cas.wire_misses", float64(c.casWireMisses)/reps)
	set("cas.warm_hit_frac", ratio(float64(c.warmHits), float64(c.warmVertices)))

	set("fleet.join_ms", float64(c.fleetJoin)/1e6/reps)
	set("fleet.dispatches_per_job", float64(c.dispatches)/jobs)
	set("fleet.hungers", float64(c.fleetHungers)/reps)
	set("fleet.steals", float64(c.fleetSteals)/reps)

	if !hasAnyPrefix("server.", absent) {
		p.setMedian("server.submit_ms", in(time.Millisecond, c.submit))
		p.setMedian("server.status_us", in(time.Microsecond, c.status))
		p.setMedian("server.result_ms", in(time.Millisecond, c.result))
		p.setMedian("server.cached_submit_ms", in(time.Millisecond, c.cachedSubmit))
		p.set("server.polls_per_job", float64(c.serverPolls)/jobs)
		p.set("server.rejected", float64(c.serverRejected))
		p.set("server.coalesced", float64(c.serverCoalesced))
	}

	p.set("go.alloc_mb_per_job", float64(m.mem.TotalAlloc)/mb/jobs)
	p.set("go.mallocs_per_job", float64(m.mem.Mallocs)/jobs)
	p.set("go.gc_cycles_per_job", float64(m.mem.NumGC)/jobs)
}

// rawMetrics are the un-normalised medians behind the end-to-end ratios:
// informational, because raw wall-clock drifts between runs here.
func rawMetrics(p metrics, m *measured, absent []string) {
	var wall, ref, warm, latency []float64
	var busy time.Duration
	var cells int64
	for _, s := range m.samples {
		wall = append(wall, s.wall.Seconds())
		ref = append(ref, s.ref.Seconds())
		warm = append(warm, s.warmWall.Seconds())
		latency = append(latency, in(time.Millisecond, s.latency)...)
		busy += s.busy
		cells += s.cells
	}
	p.setMedian("raw.makespan_s", wall)
	p.setMedian("raw.seq_s", ref)
	if !hasAnyPrefix("raw.warm_makespan_s", absent) {
		p.setMedian("raw.warm_makespan_s", warm)
	}
	p.set("raw.jobs_per_s", float64(m.jobs)/busy.Seconds())
	p.setMedian("raw.latency_p50_ms", latency)
	p.set("raw.latency_p99_ms", percentile(latency, 0.99))
	p.set("raw.mcells_per_s", float64(cells)/1e6/busy.Seconds())
}

// replayMetrics derive the layer budget of one vertex from the staged
// replay's self times. load is the reference time of the work the system
// really computes in a repetition over the repetition's makespan (the
// fresh share of speedup_vs_seq).
func replayMetrics(p metrics, r *replayed, load float64, absent []string) {
	p.set("matrix.encode_mb_per_s", mbPerSec(r.encoded, r.self[stEncode]))
	p.set("matrix.decode_mb_per_s", mbPerSec(r.decoded, r.self[stDecode]))
	p.set("matrix.store_ns_per_block", ratio(float64(r.self[stGather]+r.self[stPut]), float64(r.blocks)))
	p.set("core.taskrunner_ms_per_vertex", ratio(float64(r.self[stRun])/1e6, float64(r.vertices)))
	p.set("core.worker_busy_s_per_job", ratio(r.self[stRun].Seconds(), float64(r.jobs)))

	var compute, seq time.Duration
	for k, d := range r.compute {
		compute += d
		seq += r.seq[k]
		if _, declared := unitOf["dp."+k+".view_overhead_x"]; !declared {
			continue
		}
		mcells := float64(r.cells[k]) / 1e6
		p.set("dp."+k+".runtime_mcells_per_s", ratio(mcells, d.Seconds()))
		p.set("dp."+k+".seq_mcells_per_s", ratio(mcells, r.seq[k].Seconds()))
		p.set("dp."+k+".view_overhead_x", ratio(d.Seconds(), r.seq[k].Seconds()))
	}
	// The work the real path needs for the replayed jobs: every stage but
	// the probes, which are the replay's own extra decode and encode.
	work := r.stages - r.self[stProbeDec] - r.self[stProbeEnc]
	p.set("core.compute_self_frac", ratio(compute.Seconds(), work.Seconds()))

	// The same work, in units of the jobs' reference time, against the
	// capacity the deployment had while it ran them, in the same units
	// (workers x makespan / reference = workers / load): what is left is
	// scheduling, hand-off and idle-while-computable. Both sides are
	// fastest-of estimates normalised by a reference timed beside them.
	if !hasAnyPrefix("core.unattributed_frac", absent) {
		p.set("core.unattributed_frac", 1-ratio(work.Seconds(), seq.Seconds())*load/deploySlaves)
	}
}
