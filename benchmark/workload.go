package main

import (
	"fmt"
	"time"
)

// A workload is one set of inputs and one deployment of the shipped code.
// The harness calls setup (timed as setup_s; it ends with one uncounted
// warm-up repetition), then rep a fixed number of times, then teardown.
type workload interface {
	setup(seed int64) error
	// reps is how many repetitions the measured phase runs. It is fixed per
	// workload, so a run does the same work on every commit: sample sizes,
	// the jobs a deployment has retained when peak_rss_mb is read and the
	// share of set-up in a run do not move with the speed of the code.
	reps() int
	// rep runs one repetition: time the sequential reference of the
	// repetition's jobs, then put the same jobs through the system and
	// verify every answer. rec is nil on untraced repetitions.
	rep(rec *recorder) (repSample, error)
	// timings reduces the measured repetitions to the end-to-end timing
	// ratios, as this workload defines them.
	timings(samples []repSample) timings
	teardown()
	// absent names, by prefix, the per-layer metrics of layers this
	// workload never enters. They are reported as 0; every other declared
	// per-layer metric has to be measured.
	absent() []string
	// replayJobs are the jobs the staged replay walks, one per distinct
	// kernel of the workload, and the settings it walks them with.
	replayJobs() ([]*job, replaySettings)
}

// untimed stands in for n reference times in set-up's warm-up repetition,
// whose sample is discarded: the warm-up is there to fill caches and
// finish lazy set-up in the system, and timing the reference for it would
// only make setup_s longer and more exposed to the host's noise.
func untimed(n int) []time.Duration {
	refs := make([]time.Duration, n)
	for i := range refs {
		refs[i] = time.Nanosecond
	}
	return refs
}

// warmUp turns the warm-up repetition's outcome into set-up's: a job that
// fails before measurement starts fails the run.
func warmUp(s repSample, err error) error {
	if err == nil && s.failed > 0 {
		err = fmt.Errorf("warm-up repetition: %d of %d jobs failed", s.failed, s.jobs)
	}
	return err
}

// repSample is what one repetition measured.
type repSample struct {
	// ref is the sequential reference time of the repetition's jobs and
	// wall the time the system took for them.
	ref, wall time.Duration
	// warmWall is the wall time of the resubmission pass, where the
	// workload has one (fleet-cache).
	warmWall time.Duration
	// busy is all the time the system spent on the repetition's jobs
	// (wall, plus the warm passes where there are any).
	busy time.Duration
	// latency holds one submit-to-terminal sample per job of the cold
	// work; warmLatency one per resubmitted spec (service-smalljobs).
	latency, warmLatency []time.Duration
	cells                int64 // cells the repetition's jobs computed, resubmissions included

	jobs, failed     int
	vertices, leaked int64
	counts           counters
}

// timings are a workload's end-to-end timing ratios. Each workload reduces
// its own repetitions to them, because what "a resubmission" and "a job's
// latency" are differs between a single run, a fleet and a job service.
//
// A whole repetition's time (a makespan, a pass) is estimated as the
// fastest over the repetitions, over the fastest reference: interference
// from the host only ever adds time, it comes in episodes that outlast a
// repetition, and of all estimators tried (README, "Why ratios, and why
// best-of") best-of was the steadiest. What the service reports about the
// jobs inside its repetitions has no best case; service.timings says how
// it keeps the host's episodes out of those.
type timings struct {
	speedup, warmSpeedup, latencyX estimate
}

// estimate is a reported value and the per-repetition (or per-job) sample
// it was taken from.
type estimate struct {
	value  float64
	sample []float64
}

// bestOf is min(ref)/min(of) over the repetitions as a speed-up, with the
// per-repetition adjacent ratios ref/of as the sample behind it.
func bestOf(samples []repSample, of func(repSample) time.Duration) estimate {
	ref, best := minRef(samples), of(samples[0])
	e := estimate{}
	for _, s := range samples {
		d := of(s)
		if d < best {
			best = d
		}
		e.sample = append(e.sample, s.ref.Seconds()/d.Seconds())
	}
	e.value = ref.Seconds() / best.Seconds()
	return e
}

// inverse turns a speed-up estimate into the same estimate as a slow-down.
func (e estimate) inverse() estimate {
	out := estimate{value: 1 / e.value}
	for _, v := range e.sample {
		out.sample = append(out.sample, 1/v)
	}
	return out
}

// minRef is the fastest reference time any repetition measured: what the
// sequential program costs on this machine when nothing disturbs it.
func minRef(samples []repSample) time.Duration {
	ref := samples[0].ref
	for _, s := range samples {
		if s.ref < ref {
			ref = s.ref
		}
	}
	return ref
}

// counters are the exact per-job counts read from the system's own
// statistics after a repetition (core.Stats, fleet.Snapshot,
// cas.Store.Snapshot, /metrics).
type counters struct {
	messages, payloadBytes, taskBytes, dispatches, subTasks int64

	casMasterHits, casMasterMisses, casWireHits, casWireMisses int64
	warmVertices, warmHits                                     int64

	fleetHungers, fleetSteals int64
	fleetJoin                 time.Duration

	serverRejected, serverCoalesced, serverPolls int64
	submit, status, result, cachedSubmit         []time.Duration
}

func (c *counters) add(o counters) {
	c.messages += o.messages
	c.payloadBytes += o.payloadBytes
	c.taskBytes += o.taskBytes
	c.dispatches += o.dispatches
	c.subTasks += o.subTasks
	c.casMasterHits += o.casMasterHits
	c.casMasterMisses += o.casMasterMisses
	c.casWireHits += o.casWireHits
	c.casWireMisses += o.casWireMisses
	c.warmVertices += o.warmVertices
	c.warmHits += o.warmHits
	c.fleetHungers += o.fleetHungers
	c.fleetSteals += o.fleetSteals
	c.fleetJoin += o.fleetJoin
	c.serverRejected += o.serverRejected
	c.serverCoalesced += o.serverCoalesced
	c.serverPolls += o.serverPolls
	c.submit = append(c.submit, o.submit...)
	c.status = append(c.status, o.status...)
	c.result = append(c.result, o.result...)
	c.cachedSubmit = append(c.cachedSubmit, o.cachedSubmit...)
}

// sizes fixes every input dimension and every repetition count of the five
// workloads. The full profile is what BENCHMARK.json's numbers are measured
// on; its repetition counts make a measured phase of about run_seconds on
// the machine the benchmark was defined on. The tiny profile only serves
// the package's own consistency test.
type sizes struct {
	editN, editProc, editThread, editReps                 int
	swggN, swggProc, swggThread, swggReps                 int
	nussinovN, nussinovProc, nussinovThread, nussinovReps int

	serviceWaveN, serviceCubicN int // n of editdist/lcs/needleman and of swgg/nussinov
	serviceProc, serviceThread  int
	serviceSlice, serviceSlices int // jobs per slice, slices per run
	fleetWaveN, fleetCubicN     int
	fleetReps                   int

	minRefSample time.Duration
	microTime    time.Duration // floor of one layer micro-measurement
	setupRepeats int
	// The traced run: pairs of one untraced and one traced repetition
	// behind trace.overhead_frac, and runs of the staged replay whose
	// median the replay metrics take.
	tracePairs, replayRuns int
}

var fullSizes = sizes{
	editN: 2048, editProc: 128, editThread: 32, editReps: 48,
	swggN: 384, swggProc: 48, swggThread: 12, swggReps: 36,
	nussinovN: 512, nussinovProc: 64, nussinovThread: 16, nussinovReps: 30,
	serviceWaveN: 128, serviceCubicN: 64, serviceProc: 32, serviceThread: 16,
	serviceSlice: 400, serviceSlices: 20,
	fleetWaveN: 1024, fleetCubicN: 256, fleetReps: 36,
	minRefSample: 100 * time.Millisecond,
	microTime:    50 * time.Millisecond,
	setupRepeats: 5,
	tracePairs:   5, replayRuns: 5,
}

var tinySizes = sizes{
	editN: 96, editProc: 32, editThread: 16, editReps: 2,
	swggN: 48, swggProc: 16, swggThread: 8, swggReps: 2,
	nussinovN: 48, nussinovProc: 16, nussinovThread: 8, nussinovReps: 2,
	serviceWaveN: 24, serviceCubicN: 16, serviceProc: 8, serviceThread: 4,
	serviceSlice: 12, serviceSlices: 2,
	fleetWaveN: 64, fleetCubicN: 32, fleetReps: 2,
	minRefSample: time.Millisecond,
	microTime:    time.Millisecond,
	setupRepeats: 1,
	tracePairs:   1, replayRuns: 1,
}

var workloadNames = []string{"edit-inproc", "swgg-inproc", "nussinov-inproc", "service-smalljobs", "fleet-cache"}

func newWorkload(name string, sz sizes) workload {
	switch name {
	case "edit-inproc":
		return &inproc{sz: sz, kernel: kEdit, n: sz.editN, mutate: 0.15, proc: sz.editProc, thread: sz.editThread, nReps: sz.editReps, checkpoint: true}
	case "swgg-inproc":
		return &inproc{sz: sz, kernel: kSWGG, n: sz.swggN, mutate: 0.30, proc: sz.swggProc, thread: sz.swggThread, nReps: sz.swggReps}
	case "nussinov-inproc":
		return &inproc{sz: sz, kernel: kNussinov, n: sz.nussinovN, proc: sz.nussinovProc, thread: sz.nussinovThread, nReps: sz.nussinovReps}
	case "service-smalljobs":
		return &service{sz: sz}
	case "fleet-cache":
		return &fleetCache{sz: sz}
	}
	return nil
}
