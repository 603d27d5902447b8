package sim

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/dag"
	"repro/internal/engine"
)

// Scenario is one parsed .scenario file: a cluster configuration, job
// definitions, a fault/load script pinned to virtual timestamps, and
// the expectations the regression suite asserts. A scenario is
// re-runnable: every Run builds a fresh cluster, which is what makes
// the determinism expectations checkable at all.
//
// File format (one directive per line, '#' comments):
//
//	cluster workers=4 seed=1 cost=10ms jitter=0.2 [batch=N] [timeout=D]
//	        [check=D] [hb=D] [miss=N] [maxattempts=N] [horizon=D]
//	        [speculate] [spec-q=F] [spec-mult=F] [spec-min=N] [spec-floor=D]
//	        [steal] [cache] [auto]
//	job name=edit kernel=editdist n=64 seed=7 [proc=RxC] [weight=F]
//	        [priority=N] [quota=N] [maxattempts=N] [timeout=D] [cost=D]
//	        [cost-per-cell=D] [deadline=D] [cache-key=S]
//	at <offset> submit <jobname>
//	at <offset> cancel <jobname>
//	at <offset> join <n>
//	at <offset> kill w<idx>
//	at <offset> killn <n>
//	at <offset> partition w<idx> <dur>
//	at <offset> slow w<idx> <factor>
//	expect complete
//	expect results
//	expect deterministic
//	expect seed-sensitive
//	expect makespan <= <dur>
//	expect max-deficit <= <float>
//	expect tune-batch <op> <value>
//	expect tune-adjustments <op> <value>
//	expect job <name> <field> <op> <value>
//
// Job expectation fields: makespan (duration), failed (1 when the job
// ended in error, 0 otherwise), and the counters statFields names.
// Ops: == != <= >= < >.
//
// A job the script cancels may not be named by any expect directive —
// its schedule ends mid-flight, so nothing about it is a stable claim —
// and "expect complete"/"expect results" exempt cancelled jobs. The
// tune-* fields need the auto flag.
type Scenario struct {
	Name     string
	Opts     Options
	UseCache bool
	Jobs     []ScenarioJob
	Steps    []Step
	Expects  []Expect
}

// ScenarioJob is one job definition: which kernel to build and how to
// submit it.
type ScenarioJob struct {
	Spec          JobSpec
	Kernel        string
	N             int
	Seed          int64
	cost, perCell time.Duration // cost= and cost-per-cell=, folded into Spec.Service
}

// Step is one scripted action at a virtual offset.
type Step struct {
	At     time.Duration
	Op     string // submit | join | kill | killn | partition | slow
	Job    string
	Worker int
	N      int
	Dur    time.Duration
	Factor float64
}

// Expect is one parsed expectation.
type Expect struct {
	Job   string // empty for cluster-level
	Field string
	Op    string
	Value float64 // durations in nanoseconds
	Raw   string  // original line, for error messages
	Line  int     // 1-based line in the scenario file
}

// LoadScenario parses the .scenario file at path.
func LoadScenario(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), ".scenario")
	return ParseScenario(name, f)
}

// ParseScenario parses a scenario definition.
func ParseScenario(name string, r io.Reader) (*Scenario, error) {
	s := &Scenario{Name: name}
	sc := bufio.NewScanner(r)
	lineno := 0
	seenCluster := false
	jobNames := make(map[string]bool)
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("%s:%d: %s", name, lineno, fmt.Sprintf(format, args...))
		}
		var err error
		switch fields[0] {
		case "cluster":
			if seenCluster {
				return nil, fail("duplicate cluster directive")
			}
			seenCluster = true
			err = s.parseCluster(fields[1:])
		case "job":
			var jb ScenarioJob
			jb, err = parseJob(fields[1:])
			if err == nil {
				if jb.Spec.Name == "" || jb.Kernel == "" || jb.N == 0 {
					err = fmt.Errorf("job needs name=, kernel= and n=")
				} else if jobNames[jb.Spec.Name] {
					err = fmt.Errorf("duplicate job %q", jb.Spec.Name)
				} else {
					jobNames[jb.Spec.Name] = true
					s.Jobs = append(s.Jobs, jb)
				}
			}
		case "at":
			var st Step
			st, err = parseStep(fields[1:])
			if err == nil {
				if (st.Op == "submit" || st.Op == "cancel") && !jobNames[st.Job] {
					err = fmt.Errorf("%s of undefined job %q", st.Op, st.Job)
				} else {
					s.Steps = append(s.Steps, st)
				}
			}
		case "expect":
			var ex Expect
			ex, err = parseExpect(fields[1:])
			if err == nil {
				ex.Raw = line
				ex.Line = lineno
				s.Expects = append(s.Expects, ex)
			}
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fail("%v", err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenCluster {
		return nil, fmt.Errorf("%s: missing cluster directive", name)
	}
	if len(s.Jobs) == 0 {
		return nil, fmt.Errorf("%s: no jobs defined", name)
	}
	// A vertex costs its job's cost= (or the cluster's cost) plus its
	// job's cost-per-cell= a cell of its block.
	flat := s.Opts.withDefaults().Cost
	for i, jb := range s.Jobs {
		if jb.cost <= 0 {
			jb.cost = flat
		}
		s.Jobs[i].Spec.Service = func(r dag.Rect) time.Duration { return jb.cost + jb.perCell*time.Duration(r.Rows*r.Cols) }
	}
	submitted, cancelled := s.jobsTo("submit"), s.jobsTo("cancel")
	for _, jb := range s.Jobs {
		if !submitted[jb.Spec.Name] {
			return nil, fmt.Errorf("%s: job %q defined but never submitted", name, jb.Spec.Name)
		}
	}
	// An expectation about a job the fault script cancels asserts on a
	// schedule that ends mid-flight: nothing about it is stable, so the
	// directive is rejected up front, like a submit of an undefined job.
	for _, ex := range s.Expects {
		if ex.Job != "" && cancelled[ex.Job] {
			return nil, fmt.Errorf("%s:%d: expect references job %q, which the script cancels", name, ex.Line, ex.Job)
		}
	}
	return s, nil
}

// jobsTo is the set of jobs the script applies action op to.
func (s *Scenario) jobsTo(op string) map[string]bool {
	jobs := make(map[string]bool)
	for _, st := range s.Steps {
		if st.Op == op {
			jobs[st.Job] = true
		}
	}
	return jobs
}

func (s *Scenario) parseCluster(kvs []string) error {
	for _, kv := range kvs {
		key, val, hasVal := strings.Cut(kv, "=")
		var err error
		switch key {
		case "workers":
			s.Opts.Workers, err = strconv.Atoi(val)
		case "batch":
			s.Opts.Pool.Batch, err = strconv.Atoi(val)
		case "seed":
			s.Opts.Seed, err = strconv.ParseInt(val, 10, 64)
		case "cost":
			s.Opts.Cost, err = time.ParseDuration(val)
		case "jitter":
			s.Opts.Jitter, err = strconv.ParseFloat(val, 64)
		case "timeout":
			s.Opts.Pool.TaskTimeout, err = time.ParseDuration(val)
		case "check":
			s.Opts.Pool.CheckInterval, err = time.ParseDuration(val)
		case "hb":
			s.Opts.HeartbeatInterval, err = time.ParseDuration(val)
		case "miss":
			s.Opts.HeartbeatMiss, err = strconv.Atoi(val)
		case "maxattempts":
			s.Opts.Pool.MaxAttempts, err = strconv.Atoi(val)
		case "horizon":
			s.Opts.Horizon, err = time.ParseDuration(val)
		case "speculate":
			s.Opts.Pool.Speculate = true
		case "spec-q":
			s.Opts.Pool.SpecQuantile, err = strconv.ParseFloat(val, 64)
		case "spec-mult":
			s.Opts.Pool.SpecMultiplier, err = strconv.ParseFloat(val, 64)
		case "spec-min":
			s.Opts.Pool.SpecMinSamples, err = strconv.Atoi(val)
		case "spec-floor":
			s.Opts.Pool.SpecFloor, err = time.ParseDuration(val)
		case "steal":
			s.Opts.Pool.Steal = true
		case "cache":
			s.UseCache = true
		case "auto":
			s.Opts.Pool.Auto = true
		default:
			return fmt.Errorf("unknown cluster key %q", key)
		}
		if err != nil {
			return fmt.Errorf("cluster %s: %v", kv, err)
		}
		switch key {
		case "speculate", "steal", "cache", "auto":
			if hasVal {
				return fmt.Errorf("cluster %s: flag takes no value", key)
			}
		}
	}
	return nil
}

func parseJob(kvs []string) (ScenarioJob, error) {
	var jb ScenarioJob
	for _, kv := range kvs {
		key, val, _ := strings.Cut(kv, "=")
		var err error
		switch key {
		case "name":
			jb.Spec.Name = val
		case "kernel":
			jb.Kernel = val
		case "n":
			jb.N, err = strconv.Atoi(val)
		case "seed":
			jb.Seed, err = strconv.ParseInt(val, 10, 64)
		case "proc":
			jb.Spec.Proc, err = parseSize(val)
		case "weight":
			jb.Spec.Params.Weight, err = strconv.ParseFloat(val, 64)
		case "priority":
			jb.Spec.Params.Priority, err = strconv.Atoi(val)
		case "quota":
			jb.Spec.Params.Quota, err = strconv.Atoi(val)
		case "maxattempts":
			jb.Spec.Params.MaxAttempts, err = strconv.Atoi(val)
		case "timeout":
			jb.Spec.Params.TaskTimeout, err = time.ParseDuration(val)
		case "deadline":
			jb.Spec.Params.Timeout, err = time.ParseDuration(val)
		case "cost":
			jb.cost, err = time.ParseDuration(val)
		case "cost-per-cell":
			jb.perCell, err = time.ParseDuration(val)
		case "cache-key":
			jb.Spec.CacheKey = val
		default:
			return jb, fmt.Errorf("unknown job key %q", key)
		}
		if err != nil {
			return jb, fmt.Errorf("job %s: %v", kv, err)
		}
	}
	return jb, nil
}

func parseSize(val string) (dag.Size, error) {
	r, c, ok := strings.Cut(val, "x")
	if !ok {
		return dag.Size{}, fmt.Errorf("want RxC, got %q", val)
	}
	rows, err1 := strconv.Atoi(r)
	cols, err2 := strconv.Atoi(c)
	if err1 != nil || err2 != nil || rows < 1 || cols < 1 {
		return dag.Size{}, fmt.Errorf("want RxC, got %q", val)
	}
	return dag.Size{Rows: rows, Cols: cols}, nil
}

func parseWorker(tok string) (int, error) {
	if !strings.HasPrefix(tok, "w") {
		return 0, fmt.Errorf("want w<idx>, got %q", tok)
	}
	return strconv.Atoi(tok[1:])
}

// stepArgs names the arguments of each action of an at directive, joined by " and ".
var stepArgs = map[string]string{"submit": "a job name", "cancel": "a job name", "join": "a count",
	"killn": "a count", "kill": "w<idx>", "partition": "w<idx> and a duration", "slow": "w<idx> and a factor"}

func parseStep(fields []string) (Step, error) {
	var st Step
	if len(fields) < 2 {
		return st, fmt.Errorf("at needs an offset and an action")
	}
	at, err := time.ParseDuration(fields[0])
	if err != nil {
		return st, fmt.Errorf("bad offset %q: %v", fields[0], err)
	}
	st.At, st.Op = at, fields[1]
	args, want := fields[2:], stepArgs[st.Op]
	if want == "" {
		return st, fmt.Errorf("unknown action %q", st.Op)
	} else if len(args) != 1+strings.Count(want, " and ") {
		return st, fmt.Errorf("%s wants %s", st.Op, want)
	}
	switch st.Op {
	case "submit", "cancel":
		st.Job = args[0]
	case "join", "killn":
		st.N, err = strconv.Atoi(args[0])
		if err == nil && st.N < 1 {
			err = fmt.Errorf("count must be positive")
		}
	default: // kill, partition, slow
		st.Worker, err = parseWorker(args[0])
	}
	switch {
	case err != nil:
	case st.Op == "partition":
		st.Dur, err = time.ParseDuration(args[1])
	case st.Op == "slow":
		st.Factor, err = strconv.ParseFloat(args[1], 64)
	}
	return st, err
}

func parseExpect(fields []string) (Expect, error) {
	var ex Expect
	if len(fields) == 0 {
		return ex, fmt.Errorf("empty expect")
	}
	switch fields[0] {
	case "complete", "results", "deterministic", "seed-sensitive":
		if len(fields) != 1 {
			return ex, fmt.Errorf("expect %s takes no arguments", fields[0])
		}
		ex.Field = fields[0]
		return ex, nil
	case "job":
		if len(fields) != 5 {
			return ex, fmt.Errorf("want: expect job <name> <field> <op> <value>")
		}
		ex.Job = fields[1]
		fields = fields[2:]
	default:
		if len(fields) != 3 {
			return ex, fmt.Errorf("want: expect <field> <op> <value>")
		}
	}
	ex.Field = fields[0]
	ex.Op = fields[1]
	switch ex.Op {
	case "==", "!=", "<=", ">=", "<", ">":
	default:
		return ex, fmt.Errorf("unknown op %q", ex.Op)
	}
	if d, err := time.ParseDuration(fields[2]); err == nil && strings.IndexFunc(fields[2], func(r rune) bool {
		return r < '0' || r > '9'
	}) >= 0 {
		ex.Value = float64(d)
	} else {
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return ex, fmt.Errorf("bad value %q", fields[2])
		}
		ex.Value = v
	}
	return ex, nil
}

// Result is one finished scenario run.
type Result struct {
	Cluster *Cluster
	Jobs    map[string]*Job
	Trace   string
	RunErr  error
}

// Run executes the scenario once with the given seed override (0 keeps
// the scenario's own seed) and returns the run's artifacts, or an error
// when the scenario cannot be built or a frame broke the protocol order.
func (s *Scenario) Run(seed int64) (*Result, error) {
	opts := s.Opts
	if seed != 0 {
		opts.Seed = seed
	}
	if s.UseCache {
		store, err := cas.NewStore(cas.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", s.Name, err)
		}
		opts.Cache = store
	}
	c := New(opts)
	byName := make(map[string]ScenarioJob, len(s.Jobs))
	for _, jb := range s.Jobs {
		byName[jb.Spec.Name] = jb
	}
	res := &Result{Cluster: c, Jobs: make(map[string]*Job)}
	for _, st := range s.Steps {
		switch st.Op {
		case "submit":
			def := byName[st.Job]
			p, _, err := BuildProblem(def.Kernel, def.N, def.Seed)
			if err != nil {
				return nil, fmt.Errorf("%s: job %q: %v", s.Name, st.Job, err)
			}
			spec := def.Spec
			spec.Problem = p
			j, err := c.Submit(st.At, spec)
			if err != nil {
				return nil, fmt.Errorf("%s: job %q: %v", s.Name, st.Job, err)
			}
			res.Jobs[st.Job] = j
		case "cancel":
			c.CancelAt(st.At, st.Job)
		case "join":
			c.JoinAt(st.At, st.N)
		case "kill":
			c.KillAt(st.At, st.Worker)
		case "killn":
			c.KillRandomAt(st.At, st.N)
		case "partition":
			c.PartitionAt(st.At, st.Worker, st.Dur)
		case "slow":
			c.SlowAt(st.At, st.Worker, st.Factor)
		}
	}
	res.RunErr = c.Run()
	res.Trace = c.Trace()
	if errors.Is(res.RunErr, errProtocol) {
		return nil, fmt.Errorf("%s: %w", s.Name, res.RunErr)
	}
	return res, nil
}

// Check runs the scenario and verifies every expectation, re-running as
// required by the determinism and seed-sensitivity contracts. It
// returns every violated expectation joined into one error, nil when
// the scenario holds.
func (s *Scenario) Check() error {
	res, err := s.Run(0)
	if err != nil {
		return err
	}
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s: %s", s.Name, fmt.Sprintf(format, args...)))
	}
	cancelled := s.jobsTo("cancel")
	for _, ex := range s.Expects {
		switch ex.Field {
		case "complete":
			if res.RunErr != nil {
				fail("run failed: %v", res.RunErr)
			}
			for name, j := range res.Jobs {
				if !cancelled[name] && j.Err() != nil {
					fail("job %q failed: %v", name, j.Err())
				}
			}
		case "results":
			for _, def := range s.Jobs {
				if cancelled[def.Spec.Name] {
					continue
				}
				j := res.Jobs[def.Spec.Name]
				got := j.Result()
				if got == nil {
					fail("job %q has no result (%v)", def.Spec.Name, j.Err())
					continue
				}
				_, ref, err := BuildProblem(def.Kernel, def.N, def.Seed)
				if err != nil {
					fail("job %q reference: %v", def.Spec.Name, err)
					continue
				}
				if !equalMatrix(got, ref) {
					fail("job %q result differs from the sequential reference", def.Spec.Name)
				}
			}
		case "deterministic":
			again, err := s.Run(0)
			if err != nil {
				fail("rerun: %v", err)
				continue
			}
			if again.Trace != res.Trace {
				fail("same seed produced different traces (%d vs %d bytes): %s",
					len(res.Trace), len(again.Trace), firstTraceDiff(res.Trace, again.Trace))
			}
		case "seed-sensitive":
			alt, err := s.Run(s.Opts.Seed + 1)
			if err != nil {
				fail("reseeded run: %v", err)
				continue
			}
			if alt.Trace == res.Trace {
				fail("changing the seed did not change the schedule")
			}
			for _, def := range s.Jobs {
				ja, jb := res.Jobs[def.Spec.Name], alt.Jobs[def.Spec.Name]
				if ja.Err() == nil && jb.Err() == nil && !equalMatrix(ja.Result(), jb.Result()) {
					fail("job %q: different seeds produced different DP results", def.Spec.Name)
				}
			}
		case "makespan":
			if ex.Job != "" {
				j := res.Jobs[ex.Job]
				if j == nil {
					fail("%s: unknown job", ex.Raw)
				} else if !compare(float64(j.Makespan()), ex.Op, ex.Value) {
					fail("%s: got %v", ex.Raw, j.Makespan())
				}
			} else if !compare(float64(res.Cluster.Elapsed()), ex.Op, ex.Value) {
				fail("%s: got %v", ex.Raw, res.Cluster.Elapsed())
			}
		case "max-deficit":
			if !compare(res.Cluster.MaxDeficit(), ex.Op, ex.Value) {
				fail("%s: got %v", ex.Raw, res.Cluster.MaxDeficit())
			}
		case "tune-batch", "tune-adjustments":
			tn := res.Cluster.Tuner()
			if tn == nil {
				fail("%s: needs the auto cluster flag", ex.Raw)
				continue
			}
			v := float64(tn.BatchCap())
			if ex.Field == "tune-adjustments" {
				v = float64(tn.Adjustments())
			}
			if !compare(v, ex.Op, ex.Value) {
				fail("%s: got %v", ex.Raw, v)
			}
		default:
			j := res.Jobs[ex.Job]
			if ex.Job == "" || j == nil {
				fail("%s: unknown expectation target", ex.Raw)
				continue
			}
			if ex.Field == "failed" {
				var v float64
				if j.Err() != nil {
					v = 1
				}
				if !compare(v, ex.Op, ex.Value) {
					fail("%s: got %v (err: %v)", ex.Raw, v, j.Err())
				}
				continue
			}
			field, ok := statFields[ex.Field]
			if !ok {
				fail("%s: unknown field %q", ex.Raw, ex.Field)
				continue
			}
			v := float64(field(j.Stats()))
			if !compare(v, ex.Op, ex.Value) {
				fail("%s: got %v", ex.Raw, v)
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return nil
}

// statFields are the engine.Stats counters an expect line may name.
var statFields = map[string]func(engine.Stats) int64{
	"dispatches":      func(s engine.Stats) int64 { return s.Dispatches },
	"tasks":           func(s engine.Stats) int64 { return s.Tasks },
	"redistributions": func(s engine.Stats) int64 { return s.Redistributions },
	"stale-results":   func(s engine.Stats) int64 { return s.StaleResults },
	"speculated":      func(s engine.Stats) int64 { return s.Speculated },
	"spec-won":        func(s engine.Stats) int64 { return s.SpecWon },
	"spec-wasted":     func(s engine.Stats) int64 { return s.SpecWasted },
	"steals":          func(s engine.Stats) int64 { return s.Steals },
	"cache-hits":      func(s engine.Stats) int64 { return s.CacheHits },
	"cache-misses":    func(s engine.Stats) int64 { return s.CacheMisses },
	"leaked":          func(s engine.Stats) int64 { return s.Leaked },
	"batch-messages":  func(s engine.Stats) int64 { return s.BatchMessages },
	"blocks-shipped":  func(s engine.Stats) int64 { return s.BlocksShipped },
	"blocks-skipped":  func(s engine.Stats) int64 { return s.BlocksSkipped },
}

func compare(got float64, op string, want float64) bool {
	switch op {
	case "==":
		return got == want
	case "!=":
		return got != want
	case "<=":
		return got <= want
	case ">=":
		return got >= want
	case "<":
		return got < want
	case ">":
		return got > want
	}
	return false
}

func equalMatrix(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }

// firstTraceDiff locates the first diverging line of two formatted
// traces, for actionable determinism failures.
func firstTraceDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one trace is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}
