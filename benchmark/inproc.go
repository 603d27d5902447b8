package main

import (
	"context"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
)

// The deployment every workload runs on: at most nproc = 2 workers, one
// compute thread each. Emulation, tuning and straggler mitigation are all
// off — the zero values of core.Config — so the cell loops are the only
// "work" and the dynamic policy is the paper's.
const (
	deploySlaves  = 2
	deployThreads = 1
)

// inproc is one kernel on core.RunContext with Batch 1 (the paper's
// one-task-per-message protocol).
type inproc struct {
	sz           sizes
	kernel       string
	n            int
	mutate       float64
	proc, thread int
	nReps        int
	checkpoint   bool
	job          *job
	refs         *refTimer
	problem      core.Problem[int32]
}

func (w *inproc) config() core.Config {
	cfg := core.Config{
		Slaves:          deploySlaves,
		Threads:         deployThreads,
		ProcPartition:   w.job.proc,
		ThreadPartition: w.job.thread,
		Policy:          core.PolicyDynamic,
		Batch:           1,
	}
	if w.checkpoint {
		// Every record is framed and checksummed like a real log; only
		// the bytes are dropped, so no disk is in the measurement.
		cfg.Checkpoint = io.Discard
	}
	return cfg
}

func (w *inproc) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.job = newJob(rng, w.kernel, w.n, w.mutate, w.proc, w.thread)
	w.refs = newRefTimer([]*job{w.job}, w.sz.minRefSample)
	if err := w.job.prepare(w.refs.buf); err != nil {
		return err
	}
	w.problem = w.job.problem()
	return warmUp(w.run(nil, untimed(1)[0]))
}

func (w *inproc) rep(rec *recorder) (repSample, error) {
	return w.run(rec, w.refs.time([]*job{w.job})[0])
}

// run puts the job through core.RunContext once; ref is the reference
// time the sample is normalised by.
func (w *inproc) run(rec *recorder, ref time.Duration) (repSample, error) {
	id := rec.begin(0, "job-1", "job")
	start := time.Now()
	res, err := core.RunContext(context.Background(), w.problem, w.config())
	wall := time.Since(start)
	rec.end(id)

	s := repSample{ref: ref, wall: wall, busy: wall, jobs: 1,
		latency: []time.Duration{wall}, cells: int64(w.job.cells())}
	if err != nil {
		// A run that errors is a failed job, not a failed benchmark.
		s.failed = 1
		return s, nil
	}
	if !w.job.matches(res.Store) {
		s.failed = 1
	}
	st := res.Stats
	s.vertices = st.Tasks
	// core keeps no lease ledger of its own; with no faults injected a
	// stale result or a redistribution is the observable sign of one
	// mishandled.
	s.leaked = st.StaleResults + st.Redistributions
	s.counts = counters{
		messages: st.Messages, payloadBytes: st.PayloadBytes, taskBytes: st.TaskBytes,
		dispatches: st.Dispatches, subTasks: st.SubTasks,
	}
	return s, nil
}

func (w *inproc) reps() int { return w.nReps }

// timings: one job at a time on a deployment without a result cache. A
// resubmission is a fresh run and the job's latency is the makespan, so
// the three ratios are one measurement; all three are printed because
// every run prints every end-to-end metric.
func (w *inproc) timings(samples []repSample) timings {
	speedup := bestOf(samples, func(s repSample) time.Duration { return s.wall })
	return timings{speedup: speedup, warmSpeedup: speedup, latencyX: speedup.inverse()}
}

func (w *inproc) teardown() {}

// absent: no fleet, no job service, no result cache; the simulator's
// scenarios ride along with fleet-cache; two of the kernels with a rate
// are not this workload's.
func (w *inproc) absent() []string {
	out := []string{"fleet.", "server.", "sim.", "cas.master_", "cas.wire_", "cas.warm_hit_frac", "raw.warm_makespan_s"}
	for _, k := range kernelsWithRates {
		if k != w.kernel {
			out = append(out, "dp."+k+".")
		}
	}
	return out
}

func (w *inproc) replayJobs() ([]*job, replaySettings) {
	return []*job{w.job}, replaySettings{transport: transportChan, checkpoint: w.checkpoint, freshShare: 1}
}

// runFixedCost times core.RunContext on a one-vertex problem: everything
// a run costs that does not grow with the matrix (DAG build, ChanNetwork
// and goroutine spin-up, the fault-tolerance ticker, tear-down).
func runFixedCost(minTime time.Duration) (time.Duration, error) {
	j := newJob(rand.New(rand.NewSource(1)), kEdit, 16, 0.15, 16, 16)
	p := j.problem()
	cfg := core.Config{Slaves: deploySlaves, Threads: deployThreads, ProcPartition: j.proc, ThreadPartition: j.thread}
	var err error
	d := perOp(minTime, func() {
		if _, e := core.RunContext(context.Background(), p, cfg); e != nil {
			err = e
		}
	})
	return d, err
}
