package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
)

const (
	fleetWorkers    = 2
	fleetBatch      = 2
	fleetWarmPasses = 5
)

// fleetCache is the only workload on real sockets. Each repetition opens
// a fresh memory-only cas.Store and a fleet with two loopback-TCP
// workers, submits four different jobs at once with CacheKey set (the
// cold pass: sha256 and a store put on every commit), then resubmits the
// same four fleetWarmPasses times (the warm passes: every block absorbed
// from the store, nothing dispatched).
type fleetCache struct {
	sz    sizes
	jobs  []*job
	refs  *refTimer
	build fleet.Builder[int32]
}

func (w *fleetCache) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	wave, cubic := w.sz.fleetWaveN, w.sz.fleetCubicN
	w.jobs = []*job{
		newJob(rng, kEdit, wave, 0.15, wave/8, wave/32),
		newJob(rng, kNeedleman, wave, 0.15, wave/8, wave/32),
		newJob(rng, kSWGG, cubic, 0.30, cubic/8, cubic/32),
		newJob(rng, kNussinov, cubic, 0, cubic/8, cubic/32),
	}
	w.refs = newRefTimer(w.jobs, w.sz.minRefSample)
	for _, j := range w.jobs {
		if err := j.prepare(w.refs.buf); err != nil {
			return err
		}
	}
	w.build = server.RegistryBuilder(server.NewRegistry())
	return warmUp(w.run(nil, untimed(len(w.jobs))))
}

func (w *fleetCache) rep(rec *recorder) (repSample, error) {
	return w.run(rec, w.refs.time(w.jobs))
}

// run opens a fleet, makes the cold pass and the warm passes, and closes
// it again; refs are the jobs' reference times.
func (w *fleetCache) run(rec *recorder, refs []time.Duration) (repSample, error) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		return repSample{}, err
	}
	f, err := fleet.New[int32](fleet.Options{Addr: "127.0.0.1:0", Batch: fleetBatch, Cache: store})
	if err != nil {
		return repSample{}, fmt.Errorf("starting fleet: %w", err)
	}
	wctx, stopWorkers := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	joinStart := time.Now()
	for i := 0; i < fleetWorkers; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			// The error of a worker that is told to leave is the
			// cancellation itself; a worker lost mid-run shows up as
			// failed jobs.
			_ = fleet.RunWorker(wctx, w.build, fleet.WorkerOptions{
				Addr: f.Addr(),
				Name: "w" + strconv.Itoa(i),
				Run:  core.Config{Threads: deployThreads, Batch: fleetBatch},
			})
		}(i)
	}
	defer func() {
		stopWorkers()
		workers.Wait()
		f.Close()
	}()
	if err := waitMembers(f, fleetWorkers, 10*time.Second); err != nil {
		return repSample{}, err
	}
	join := time.Since(joinStart)

	s := repSample{ref: sumDurations(refs), jobs: (1 + fleetWarmPasses) * len(w.jobs)}
	s.wall = w.pass(f, rec, "pass.cold", &s)
	before := store.Snapshot()
	// A warm pass lasts a few milliseconds, so it is run fleetWarmPasses
	// times and the median taken.
	var warm []time.Duration
	for i := 0; i < fleetWarmPasses; i++ {
		warm = append(warm, w.pass(f, rec, "pass.warm", &s))
	}
	s.warmWall = time.Duration(median(in(time.Nanosecond, warm)))
	s.busy = s.wall + sumDurations(warm)
	for _, j := range w.jobs {
		s.cells += (1 + fleetWarmPasses) * int64(j.cells())
	}
	after := store.Snapshot()

	snap := f.Snapshot()
	for _, js := range snap.Jobs {
		st := js.Stats
		s.leaked += st.Leaked + st.Redistributions
		s.counts.dispatches += st.Dispatches
		s.counts.taskBytes += st.TaskBytes
	}
	s.counts.casMasterHits = after.Hits[cas.LayerMaster]
	s.counts.casMasterMisses = after.Misses[cas.LayerMaster]
	s.counts.casWireHits = after.Hits[cas.LayerWire]
	s.counts.casWireMisses = after.Misses[cas.LayerWire]
	s.counts.warmHits = after.Hits[cas.LayerMaster] - before.Hits[cas.LayerMaster]
	s.counts.fleetHungers = snap.Hungers
	s.counts.fleetSteals = snap.Aggregate.Steals
	s.counts.fleetJoin = join
	return s, nil
}

// pass submits every job at once and waits for all of them, returning the
// wall time. The cold pass records each job's latency.
func (w *fleetCache) pass(f *fleet.Fleet[int32], rec *recorder, name string, s *repSample) time.Duration {
	cold := name == "pass.cold"
	type outcome struct {
		latency time.Duration
		res     *fleet.Result[int32]
		err     error
	}
	out := make([]outcome, len(w.jobs))
	root := rec.begin(0, name, name)
	var wg sync.WaitGroup
	start := time.Now()
	for i, j := range w.jobs {
		wg.Add(1)
		go func(i int, j *job) {
			defer wg.Done()
			id := name + "/" + j.kernel
			spec, err := json.Marshal(j.spec())
			if err != nil {
				out[i].err = err
				return
			}
			span := rec.begin(root, id, "job")
			out[i].res, out[i].err = f.Run(context.Background(), j.problem(), fleet.JobRequest{
				Name: id, Spec: spec, Proc: j.proc, Thread: j.thread,
				CacheKey: "benchmark:" + j.kernel,
			})
			out[i].latency = time.Since(start)
			rec.end(span)
		}(i, j)
	}
	wg.Wait()
	wall := time.Since(start)
	rec.end(root)

	for i, o := range out {
		if cold {
			s.latency = append(s.latency, o.latency)
		}
		if o.err != nil || !w.jobs[i].matches(o.res.Store) {
			s.failed++
			continue
		}
		tasks := o.res.Stats.Tasks + o.res.Stats.CacheHits
		s.vertices += tasks
		if !cold {
			s.counts.warmVertices += tasks
		}
	}
	return wall
}

// waitMembers blocks until n workers are live in the fleet's registry.
func waitMembers(f *fleet.Fleet[int32], n int, timeout time.Duration) error {
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	deadline := time.Now().Add(timeout)
	for f.Registry().Live() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d workers joined within %v", f.Registry().Live(), n, timeout)
		}
		<-ticker.C
	}
	return nil
}

func (w *fleetCache) reps() int { return w.sz.fleetReps }

// timings: the cold pass is the makespan, the (median) warm pass the
// resubmission, and a job's latency its submitter's wait in the cold pass.
// The four jobs are unlike, so the latency ratio is the four waits summed
// over the four references summed.
func (w *fleetCache) timings(samples []repSample) timings {
	waited := bestOf(samples, func(s repSample) time.Duration { return sumDurations(s.latency) })
	return timings{
		speedup:     bestOf(samples, func(s repSample) time.Duration { return s.wall }),
		warmSpeedup: bestOf(samples, func(s repSample) time.Duration { return s.warmWall }),
		latencyX:    waited.inverse(),
	}
}

func (w *fleetCache) teardown() {}

// absent: no job service. The fleet's ledger (cluster.Stats) counts
// dispatches and task bytes but neither messages, payload bytes nor
// thread-level sub-tasks; its dispatches are fleet.dispatches_per_job.
// core.unattributed_frac holds the replay's work against the deployment's
// capacity, and the fleet ships a 48-byte reference for every block a
// worker already holds where the replay ships and decodes the block: the
// replay's work overstates the fleet's, and the difference would be noise.
func (w *fleetCache) absent() []string {
	return []string{"server.", "comm.messages_per_job", "comm.payload_mb_per_job",
		"core.dispatches_per_job", "core.subtasks_per_job", "core.unattributed_frac"}
}

func (w *fleetCache) replayJobs() ([]*job, replaySettings) {
	return w.jobs, replaySettings{transport: transportTCP, cache: true, freshShare: 1, sim: true}
}
