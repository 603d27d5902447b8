package main

import (
	"fmt"
	"strings"
)

// metricDef declares one metric the benchmark emits. The list below is the
// emitter's side of BENCHMARK.json; the package test fails when the two
// disagree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// zeroOK marks a per-layer metric whose healthy value can be 0: a count
	// of refusals, a leak fraction, a signed difference. Every other
	// per-layer metric of a layer the workload enters must be measured and
	// must not be 0, so a measurement that was dropped or broke cannot pass
	// for "the workload never enters this layer".
	zeroOK bool
}

// endToEnd are the metrics a user of the system sees. Timings are ratios
// to the benchmark's own sequential reference, because raw seconds differ
// between hosts and between hours on one host. BENCHMARK.json allows one
// bound per metric, so each has to cover the workload that repeats worst
// (service-smalljobs): over six ten-run campaigns the quartile spreads of
// the three ratios reached 13-16 % there in the host's bad hours, against
// 1-6 % on every workload in calm ones (README.md, "Measured steadiness").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "speedup_vs_seq", unit: "x", better: "higher", bound: 0.25},
	{name: "warm_speedup_vs_seq", unit: "x", better: "higher", bound: 0.25},
	{name: "job_latency_x", unit: "x", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

var kernelsWithRates = []string{kEdit, kSWGG, kNussinov, kNeedleman}

// perLayer are the single-layer metrics of the traced run, named after the
// package they measure. A workload reports 0 for exactly the metrics its
// absent() names: the layers it never enters.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "failed_frac", unit: "fraction", better: "lower", zeroOK: true},
		{name: "leaked_frac", unit: "fraction", better: "lower", zeroOK: true},

		{name: "dag.build_us", unit: "us", better: "lower"},
		{name: "dag.drain_ns_per_vertex", unit: "ns", better: "lower"},
		{name: "sched.nextbatch_ns_per_vertex", unit: "ns", better: "lower"},
		{name: "sched.lease_cycle_ns", unit: "ns", better: "lower"},

		{name: "matrix.encode_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "matrix.decode_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "matrix.keyed_encode_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "matrix.keyed_decode_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "matrix.store_ns_per_block", unit: "ns", better: "lower"},
		{name: "matrix.assemble_ms", unit: "ms", better: "lower"},

		{name: "comm.chan_roundtrip_us", unit: "us", better: "lower"},
		{name: "comm.tcp_roundtrip_us", unit: "us", better: "lower"},
		{name: "comm.tcp_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "comm.messages_per_job", unit: "count", better: "lower"},
		{name: "comm.payload_mb_per_job", unit: "MB", better: "lower"},

		{name: "core.task_mb_per_job", unit: "MB", better: "lower"},
		{name: "core.dispatches_per_job", unit: "count", better: "lower"},
		{name: "core.subtasks_per_job", unit: "count", better: "lower"},
		{name: "core.taskrunner_ms_per_vertex", unit: "ms", better: "lower"},
		{name: "core.worker_busy_s_per_job", unit: "s", better: "lower"},
		{name: "core.compute_self_frac", unit: "fraction", better: "higher"},
		{name: "core.run_fixed_ms", unit: "ms", better: "lower"},
		{name: "core.unattributed_frac", unit: "fraction", better: "lower", zeroOK: true},
	}
	for _, k := range kernelsWithRates {
		defs = append(defs,
			metricDef{name: "dp." + k + ".runtime_mcells_per_s", unit: "Mcells/s", better: "higher"},
			metricDef{name: "dp." + k + ".seq_mcells_per_s", unit: "Mcells/s", better: "higher"},
			metricDef{name: "dp." + k + ".view_overhead_x", unit: "x", better: "lower"})
	}
	defs = append(defs, []metricDef{
		{name: "cas.payloadkey_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "cas.blockkey_ns", unit: "ns", better: "lower"},
		{name: "cas.putblock_us", unit: "us", better: "lower"},
		{name: "cas.getblock_us", unit: "us", better: "lower"},
		{name: "cas.master_hits", unit: "count", better: "higher"},
		{name: "cas.master_misses", unit: "count", better: "lower"},
		{name: "cas.wire_hits", unit: "count", better: "higher", zeroOK: true},
		{name: "cas.wire_misses", unit: "count", better: "lower", zeroOK: true},
		{name: "cas.warm_hit_frac", unit: "fraction", better: "higher"},

		{name: "checkpoint.append_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "checkpoint.replay_mb_per_s", unit: "MB/s", better: "higher"},

		{name: "fleet.join_ms", unit: "ms", better: "lower"},
		{name: "fleet.dispatches_per_job", unit: "count", better: "lower"},
		{name: "fleet.hungers", unit: "count", better: "lower", zeroOK: true},
		{name: "fleet.steals", unit: "count", better: "lower", zeroOK: true},

		{name: "server.submit_ms", unit: "ms", better: "lower"},
		{name: "server.status_us", unit: "us", better: "lower"},
		{name: "server.result_ms", unit: "ms", better: "lower"},
		{name: "server.cached_submit_ms", unit: "ms", better: "lower"},
		{name: "server.polls_per_job", unit: "count", better: "lower"},
		{name: "server.rejected", unit: "count", better: "lower", zeroOK: true},
		{name: "server.coalesced", unit: "count", better: "lower", zeroOK: true},
	}...)
	for _, s := range simScenarios {
		defs = append(defs, metricDef{name: "sim." + s + ".makespan_vms", unit: "vms", better: "lower"})
	}
	return append(defs, []metricDef{
		{name: "go.alloc_mb_per_job", unit: "MB", better: "lower"},
		{name: "go.mallocs_per_job", unit: "count", better: "lower"},
		{name: "go.gc_cycles_per_job", unit: "count", better: "lower", zeroOK: true},

		{name: "raw.makespan_s", unit: "s", better: "lower"},
		{name: "raw.seq_s", unit: "s", better: "lower"},
		{name: "raw.warm_makespan_s", unit: "s", better: "lower"},
		{name: "raw.jobs_per_s", unit: "1/s", better: "higher"},
		{name: "raw.latency_p50_ms", unit: "ms", better: "lower"},
		{name: "raw.latency_p99_ms", unit: "ms", better: "lower"},
		{name: "raw.mcells_per_s", unit: "Mcells/s", better: "higher"},

		{name: "trace.overhead_frac", unit: "fraction", better: "lower", zeroOK: true},
	}...)
}()

var unitOf = func() map[string]string {
	u := make(map[string]string)
	for _, d := range endToEnd {
		u[d.name] = d.unit
	}
	for _, d := range perLayer {
		u[d.name] = d.unit
	}
	return u
}()

// metric is one reported value. Timed metrics also carry the sample
// behind the value.
type metric struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Sample *summary `json:"sample,omitempty"`
}

type metrics map[string]metric

// set records a declared metric; an undeclared name is a bug in the
// benchmark, not an input condition.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in metrics.go", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metrics) setSample(name string, v float64, xs []float64) {
	m.set(name, v)
	s := summarize(xs)
	e := m[name]
	e.Sample = &s
	m[name] = e
}

func (m metrics) setEstimate(name string, e estimate) { m.setSample(name, e.value, e.sample) }

// setMedian reports the median of xs and keeps its quartiles.
func (m metrics) setMedian(name string, xs []float64) { m.setSample(name, median(xs), xs) }

// zeroAbsent reports 0 for the declared per-layer metrics under the given
// name prefixes: the layers a workload never enters. Measuring one of them
// all the same is a bug in the benchmark.
func (m metrics) zeroAbsent(prefixes []string) {
	for _, d := range perLayer {
		if !hasAnyPrefix(d.name, prefixes) {
			continue
		}
		if _, measured := m[d.name]; measured {
			panic(fmt.Sprintf("benchmark: metric %q is measured on a workload that declares it absent", d.name))
		}
		m.set(d.name, 0)
	}
}

// incomplete lists what is wrong with a traced run's per-layer metrics: a
// declared metric nothing measured, or one that must not be 0 and is.
func (m metrics) incomplete(absent []string) []string {
	var bad []string
	for _, d := range perLayer {
		e, ok := m[d.name]
		switch {
		case !ok:
			bad = append(bad, d.name+" was not measured")
		case e.Value == 0 && !d.zeroOK && !hasAnyPrefix(d.name, absent):
			bad = append(bad, d.name+" is 0")
		}
	}
	return bad
}

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
