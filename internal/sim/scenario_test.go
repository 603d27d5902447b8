package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dag"
)

// TestScenarios is the regression suite: every .scenario file under
// testdata is parsed, run and checked, including its determinism and
// seed-sensitivity reruns.
func TestScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no .scenario files under testdata")
	}
	for _, path := range paths {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".scenario")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := LoadScenario(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScenariosReseeded replays every scenario at extra seeds and checks
// the seed-independent half of the contract: each seed's schedule is
// deterministic (two runs, byte-identical traces), every frame the driver
// sends keeps the protocol order a real worker relies on, and every job
// that completes produces the bit-identical sequential DP result. Seed-tuned
// expectations (makespan bounds, stat fields) are deliberately not
// re-checked — they belong to the scenario's own seed. Seeds come from
// EASYHPS_SIM_SEEDS (comma-separated), defaulting to a fixed pair;
// scripts/ci.sh -sim runs this with its own seeds under a wall-time
// budget.
func TestScenariosReseeded(t *testing.T) {
	if testing.Short() {
		t.Skip("reseeded replays add no coverage over TestScenarios")
	}
	seeds := []int64{101, 202}
	if env := os.Getenv("EASYHPS_SIM_SEEDS"); env != "" {
		seeds = nil
		for _, f := range strings.Split(env, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("EASYHPS_SIM_SEEDS: %v", err)
			}
			seeds = append(seeds, n)
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no .scenario files under testdata")
	}
	for _, path := range paths {
		path, name := path, strings.TrimSuffix(filepath.Base(path), ".scenario")
		for _, seed := range seeds {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				s, err := LoadScenario(path)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(seed)
				if err != nil {
					t.Fatal(err)
				}
				again, err := s.Run(seed)
				if err != nil {
					t.Fatal(err)
				}
				if res.Trace != again.Trace {
					t.Fatalf("seed %d is not deterministic: %s", seed, firstTraceDiff(res.Trace, again.Trace))
				}
				for _, def := range s.Jobs {
					j := res.Jobs[def.Spec.Name]
					if j == nil || j.Err() != nil {
						continue // completion at arbitrary seeds is the scenario's own business
					}
					_, ref, err := BuildProblem(def.Kernel, def.N, def.Seed)
					if err != nil {
						t.Fatal(err)
					}
					if !equalMatrix(j.Result(), ref) {
						t.Fatalf("seed %d: job %q diverged from the sequential reference", seed, def.Spec.Name)
					}
				}
			})
		}
	}
}

func TestParseScenarioFields(t *testing.T) {
	const text = `
# full-feature parse check
cluster workers=16 batch=2 seed=9 cost=3ms jitter=0.25 timeout=2s check=50ms hb=40ms miss=4 maxattempts=5 horizon=90s speculate spec-q=0.9 spec-mult=3 spec-min=6 spec-floor=10ms steal cache auto
job name=j kernel=editdist n=32 seed=4 proc=4x4 weight=2.5 priority=1 quota=3 maxattempts=2 timeout=1s cost=7ms cost-per-cell=250us deadline=20s cache-key=k
at 5ms submit j
at 10ms join 3
at 15ms kill w2
at 20ms killn 4
at 25ms partition w1 100ms
at 30ms slow w0 2.5
expect complete
expect deterministic
expect makespan <= 3s
expect max-deficit <= 1.5
expect job j tasks == 16
`
	s, err := ParseScenario("full", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	o, p := s.Opts, s.Opts.Pool
	if o.Workers != 16 || p.Batch != 2 || o.Seed != 9 || o.Cost != 3*time.Millisecond ||
		o.Jitter != 0.25 || p.TaskTimeout != 2*time.Second || p.CheckInterval != 50*time.Millisecond ||
		o.HeartbeatInterval != 40*time.Millisecond || o.HeartbeatMiss != 4 || p.MaxAttempts != 5 ||
		o.Horizon != 90*time.Second || !p.Speculate || p.SpecQuantile != 0.9 || p.SpecMultiplier != 3 ||
		p.SpecMinSamples != 6 || p.SpecFloor != 10*time.Millisecond || !p.Steal || !p.Auto {
		t.Fatalf("cluster options misparsed: %+v", o)
	}
	if !s.UseCache {
		t.Fatal("cache flag not parsed")
	}
	if len(s.Jobs) != 1 {
		t.Fatalf("want 1 job, got %d", len(s.Jobs))
	}
	jb := s.Jobs[0]
	if jb.Spec.Name != "j" || jb.Kernel != "editdist" || jb.N != 32 || jb.Seed != 4 ||
		jb.Spec.Proc.Rows != 4 || jb.Spec.Proc.Cols != 4 || jb.Spec.Params.Weight != 2.5 ||
		jb.Spec.Params.Priority != 1 || jb.Spec.Params.Quota != 3 || jb.Spec.Params.MaxAttempts != 2 ||
		jb.Spec.Params.TaskTimeout != time.Second || jb.Spec.Params.Timeout != 20*time.Second ||
		jb.Spec.CacheKey != "k" {
		t.Fatalf("job misparsed: %+v", jb)
	}
	if got := jb.Spec.Service(dag.Rect{Rows: 4, Cols: 4}); got != 11*time.Millisecond {
		t.Fatalf("a 4x4 block costs %v, want cost=7ms + 16 x cost-per-cell=250us = 11ms", got)
	}
	if len(s.Steps) != 6 {
		t.Fatalf("want 6 steps, got %d", len(s.Steps))
	}
	st := s.Steps[4]
	if st.Op != "partition" || st.At != 25*time.Millisecond || st.Worker != 1 || st.Dur != 100*time.Millisecond {
		t.Fatalf("partition step misparsed: %+v", st)
	}
	if sl := s.Steps[5]; sl.Op != "slow" || sl.Worker != 0 || sl.Factor != 2.5 {
		t.Fatalf("slow step misparsed: %+v", sl)
	}
	if len(s.Expects) != 5 {
		t.Fatalf("want 5 expects, got %d", len(s.Expects))
	}
	if ex := s.Expects[2]; ex.Field != "makespan" || ex.Op != "<=" || ex.Value != float64(3*time.Second) {
		t.Fatalf("duration expect misparsed: %+v", ex)
	}
	if ex := s.Expects[3]; ex.Field != "max-deficit" || ex.Value != 1.5 {
		t.Fatalf("float expect misparsed: %+v", ex)
	}
	if ex := s.Expects[4]; ex.Job != "j" || ex.Field != "tasks" || ex.Op != "==" || ex.Value != 16 {
		t.Fatalf("job expect misparsed: %+v", ex)
	}
}

// A job's service time takes the cluster's cost where it sets none, from
// wherever the cluster directive stands.
func TestParseScenarioJobCost(t *testing.T) {
	for _, c := range []struct {
		text string
		want time.Duration
	}{
		{"job name=j kernel=lcs n=8 cost-per-cell=1ms\ncluster workers=2 cost=5ms\nat 0ms submit j\n", 11 * time.Millisecond},
		{"cluster workers=2 cost=5ms\njob name=j kernel=lcs n=8 cost-per-cell=1ms\nat 0ms submit j\n", 11 * time.Millisecond},
		{"job name=j kernel=lcs n=8 cost-per-cell=1ms\ncluster workers=2\nat 0ms submit j\n", 7 * time.Millisecond},
		{"cluster workers=2 cost=5ms\njob name=j kernel=lcs n=8 cost=2ms\nat 0ms submit j\n", 2 * time.Millisecond},
		{"cluster workers=2 cost=5ms\njob name=j kernel=lcs n=8\nat 0ms submit j\n", 5 * time.Millisecond},
	} {
		s, err := ParseScenario("cost", strings.NewReader(c.text))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Jobs[0].Spec.Service(dag.Rect{Rows: 2, Cols: 3}); got != c.want {
			t.Errorf("%q: a 2x3 block costs %v, want %v", c.text, got, c.want)
		}
	}
}

func TestParseScenarioErrors(t *testing.T) {
	const header = "cluster workers=2 seed=1\njob name=j kernel=editdist n=8 seed=1\nat 0ms submit j\n"
	cases := []struct {
		name, text, want string
	}{
		{"unknown directive", header + "frobnicate\n", "unknown directive"},
		{"duplicate cluster", header + "cluster workers=3\n", "duplicate cluster"},
		{"bad cluster key", "cluster workers=2 bogus=1\n", "unknown cluster key"},
		{"bad cluster value", "cluster workers=two\n", "invalid syntax"},
		{"flag with value", "cluster workers=2 steal=yes\n", "takes no value"},
		{"bad job key", header + "job name=k kernel=lcs n=8 bogus=1\nat 0ms submit k\n", "unknown job key"},
		{"job missing kernel", header + "job name=k n=8\n", "needs name=, kernel= and n="},
		{"duplicate job", header + "job name=j kernel=lcs n=8\n", "duplicate job"},
		{"bad proc", header + "job name=k kernel=lcs n=8 proc=4\nat 0ms submit k\n", "want RxC"},
		{"submit unknown job", header + "at 0ms submit ghost\n", "undefined job"},
		{"bad offset", header + "at soon submit j\n", "bad offset"},
		{"bad action", header + "at 0ms explode j\n", "unknown action"},
		{"bad worker token", header + "at 0ms kill 3\n", "want w<idx>"},
		{"join needs count", header + "at 0ms join\n", "wants a count"},
		{"killn zero", header + "at 0ms killn 0\n", "must be positive"},
		{"partition args", header + "at 0ms partition w0\n", "wants w<idx> and a duration"},
		{"slow args", header + "at 0ms slow w0\n", "wants w<idx> and a factor"},
		{"empty expect", header + "expect\n", "empty expect"},
		{"expect extra args", header + "expect complete now\n", "takes no arguments"},
		{"expect bad op", header + "expect makespan ~ 3s\n", "unknown op"},
		{"expect bad value", header + "expect makespan <= soonish\n", "bad value"},
		{"expect job arity", header + "expect job j tasks ==\n", "expect job"},
		{"cancel unknown job", header + "at 1ms cancel ghost\n", `cancel of undefined job "ghost"`},
		{"cancel arity", header + "at 1ms cancel\n", "cancel wants a job name"},
		{"expect on cancelled job", header + "at 1ms cancel j\nexpect job j tasks == 1\n",
			`x:5: expect references job "j", which the script cancels`},
		{"expect before cancel step", header + "expect job j tasks == 1\nat 1ms cancel j\n",
			`x:4: expect references job "j", which the script cancels`},
		{"no cluster", "job name=j kernel=editdist n=8\nat 0ms submit j\n", "missing cluster"},
		{"no jobs", "cluster workers=2\n", "no jobs defined"},
		{"never submitted", "cluster workers=2\njob name=j kernel=editdist n=8\n", "never submitted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario("x", strings.NewReader(tc.text))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %q", tc.want, err)
			}
		})
	}
}

func TestLoadScenarioMissingFile(t *testing.T) {
	if _, err := LoadScenario(filepath.Join("testdata", "no-such.scenario")); err == nil {
		t.Fatal("want error for missing scenario file")
	}
}

// TestCheckReportsViolations runs a scenario whose expectations cannot
// hold and verifies the checker surfaces each violated line.
func TestCheckReportsViolations(t *testing.T) {
	const text = `
cluster workers=2 seed=1 cost=1ms check=10ms horizon=30s
job name=j kernel=editdist n=16 seed=1 proc=2x2
at 0ms submit j
expect makespan <= 1ns
expect job j tasks == 999
expect job j nonsense == 1
expect job ghost tasks == 1
expect seed-sensitive
`
	s, err := ParseScenario("bad-expect", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Check()
	if err == nil {
		t.Fatal("want violations, got nil")
	}
	for _, want := range []string{
		"expect makespan <= 1ns",
		"expect job j tasks == 999",
		`unknown field "nonsense"`,
		"unknown expectation target",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing violation %q in:\n%v", want, err)
		}
	}
}
