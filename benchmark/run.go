package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// report is everything one run of one workload produced.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Leaked    int64   `json:"leaked"`
	Reps      int     `json:"reps"`
	MeasuredS float64 `json:"measured_s"` // how long the fixed repetitions took
	RSSMethod string  `json:"rss_method"`
	// ReplayStageShare is the share of the first staged replay's wall time
	// its stages' self times account for; the rest is the replay's own loop.
	ReplayStageShare float64 `json:"replay_stage_share,omitempty"`
	TraceFile        string  `json:"trace_file,omitempty"`
	EndToEnd         metrics `json:"end_to_end"`
	PerLayer         metrics `json:"per_layer,omitempty"`
}

// runOptions say what to run; sz and outDir exist so the package test can
// run tiny inputs into a temporary directory.
type runOptions struct {
	workload string
	seed     int64
	trace    bool
	sz       sizes
	outDir   string
}

// measured is the untraced phase: every repetition's sample plus the
// process-level readings taken around the phase.
type measured struct {
	samples   []repSample
	timings   timings
	counts    counters
	elapsed   time.Duration
	jobs      int
	failed    int
	vertices  int64
	leaked    int64
	peakRSS   float64
	rssMethod string
	mem       runtime.MemStats // delta over the phase
}

func runWorkload(o runOptions, processStart time.Time) (*report, error) {
	if newWorkload(o.workload, o.sz) == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}

	// Set-up is repeated and the fastest reported: the acceptance contract
	// asks for several set-ups a run, and on the host this was defined on
	// one set-up timed from process start spread 11-40 % between runs, the
	// median of five 5-20 %, the fastest of five 6-11 %. The first sample
	// runs from process start.
	var w workload
	var setups []float64
	for i := 0; i < o.sz.setupRepeats; i++ {
		if w != nil {
			w.teardown()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		w = newWorkload(o.workload, o.sz)
		if err := w.setup(o.seed); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up of %s: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.teardown()

	m, err := measure(w, o.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: o.workload, Seed: o.seed, Traced: o.trace,
		Attempted: m.jobs, Failed: m.failed, Leaked: m.leaked,
		Reps: len(m.samples), MeasuredS: m.elapsed.Seconds(),
		RSSMethod: m.rssMethod,
		EndToEnd:  endToEndMetrics(setups, m),
	}
	if o.trace {
		if err := traced(w, o, m, rep); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Leaked == 0
	return rep, nil
}

// measure runs the workload's fixed number of untraced repetitions.
func measure(w workload, name string) (*measured, error) {
	m := &measured{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSS()
	start := time.Now()
	for i := 0; i < w.reps(); i++ {
		s, err := w.rep(nil)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", name, i+1, err)
		}
		m.samples = append(m.samples, s)
		m.counts.add(s.counts)
		m.jobs += s.jobs
		m.failed += s.failed
		m.vertices += s.vertices
		m.leaked += s.leaked
	}
	m.elapsed = time.Since(start)
	m.peakRSS = rss.peakMB()
	rss.end()
	m.rssMethod = rss.method()
	runtime.ReadMemStats(&after)
	m.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	m.mem.Mallocs = after.Mallocs - before.Mallocs
	m.mem.NumGC = after.NumGC - before.NumGC
	m.timings = w.timings(m.samples)
	return m, nil
}

func endToEndMetrics(setups []float64, m *measured) metrics {
	e := metrics{}
	e.setSample("setup_s", minOf(setups), setups)
	e.setEstimate("speedup_vs_seq", m.timings.speedup)
	e.setEstimate("warm_speedup_vs_seq", m.timings.warmSpeedup)
	e.setEstimate("job_latency_x", m.timings.latencyX)
	e.set("peak_rss_mb", m.peakRSS)
	return e
}

// traced runs what only the traced run has: pairs of an untraced and a
// traced end-to-end repetition, the staged replay, the layer
// micro-measurements, and the per-layer metrics derived from all of it and
// from the counters of the untraced phase.
func traced(w workload, o runOptions, m *measured, rep *report) error {
	rec := newRecorder()
	plain, spanned := time.Duration(0), time.Duration(0)
	vertices := m.vertices
	for i := 0; i < o.sz.tracePairs; i++ {
		for _, r := range []*recorder{nil, rec} {
			s, err := w.rep(r)
			if err != nil {
				return fmt.Errorf("traced phase, pair %d: %w", i+1, err)
			}
			rep.Attempted += s.jobs
			rep.Failed += s.failed
			rep.Leaked += s.leaked
			vertices += s.vertices
			fastest := &plain
			if r != nil {
				fastest = &spanned
			}
			if *fastest == 0 || s.wall < *fastest {
				*fastest = s.wall
			}
		}
	}

	jobs, set := w.replayJobs()
	r, err := replay(rec, jobs, set, o.sz)
	if err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	rep.Attempted += len(jobs) * o.sz.replayRuns
	rep.Failed += r.failed
	rep.ReplayStageShare = r.stageShare

	p := metrics{}
	p.set("failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)))
	p.set("leaked_frac", ratio(float64(rep.Leaked), float64(vertices)))
	absent := w.absent()
	counterMetrics(p, m, absent)
	rawMetrics(p, m, absent)
	replayMetrics(p, r, set.freshShare*m.timings.speedup.value, absent)

	floor := o.sz.microTime
	measureDAG(p, r, floor)
	measureSched(p, r, floor)
	if err := measureKeyedCodec(p, r, floor); err != nil {
		return err
	}
	p.set("matrix.assemble_ms", float64(perOp(floor, func() { r.store.Assemble() }))/1e6)
	if err := measureComm(p, r, floor); err != nil {
		return err
	}
	if err := measureCAS(p, r, floor); err != nil {
		return err
	}
	if err := measureCheckpoint(p, r, floor); err != nil {
		return err
	}
	fixed, err := runFixedCost(floor)
	if err != nil {
		return err
	}
	p.set("core.run_fixed_ms", float64(fixed)/1e6)
	if set.sim {
		if err := measureSim(p); err != nil {
			return err
		}
	}
	// Tracing overhead: the fastest traced repetition against the fastest
	// untraced one of the same alternating pairs.
	p.set("trace.overhead_frac", spanned.Seconds()/plain.Seconds()-1)

	p.zeroAbsent(absent)
	if bad := p.incomplete(absent); len(bad) > 0 {
		return fmt.Errorf("per-layer metrics of %s: %s", o.workload, strings.Join(bad, "; "))
	}
	rep.PerLayer = p

	path, err := rec.write(o.outDir, o.workload)
	if err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	rep.TraceFile = filepath.ToSlash(path)
	return nil
}
