package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The tests run from the repository root, like the benchmark itself: the
// simulator scenarios and BENCHMARK.json are addressed from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEmitterMatchesBenchmarkJSON runs every workload once on tiny inputs,
// untraced and traced, and holds what the benchmark prints against what
// BENCHMARK.json declares: every declared metric exactly once with its
// unit, nothing undeclared, every name well formed. A metric may be 0 only
// if the workload declares its layer absent or 0 is a healthy reading of
// it; a traced run that measured less than that fails in runWorkload.
func TestEmitterMatchesBenchmarkJSON(t *testing.T) {
	d := readDeclaration(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	if d.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the benchmark's runSeconds is %d", d.RunSeconds, runSeconds)
	}
	for i, def := range endToEnd {
		if i >= len(d.EndToEnd) {
			break
		}
		got := d.EndToEnd[i]
		if got.Bound == nil || got.Name != def.name || got.Better != def.better || *got.Bound != def.bound {
			t.Errorf("end_to_end[%d] is %+v in BENCHMARK.json, %+v in metrics.go", i, got, def)
		}
	}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(runOptions{workload: name, seed: 7, trace: trace, sz: tinySizes, outDir: t.TempDir()}, time.Now())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d leaked=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Leaked)
			}
			declared := d.EndToEnd
			if trace {
				declared = d.PerLayer
			}
			var line struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(rep)), &line); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			for _, m := range declared {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Value == nil {
					t.Errorf("%s trace=%v: declared metric %s is not in the result line", name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				}
				switch absent := hasAnyPrefix(m.Name, newWorkload(name, tinySizes).absent()); {
				case !trace && *got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
				case trace && absent && *got.Value != 0:
					t.Errorf("%s: %s is declared absent but reads %v", name, m.Name, *got.Value)
				case trace && !absent && *got.Value == 0 && !zeroIsHealthy(m.Name):
					t.Errorf("%s: per-layer metric %s is 0, and the workload enters its layer", name, m.Name)
				}
			}
			if len(line.Metrics) != len(declared) {
				for got := range line.Metrics {
					if !declaredHas(declared, got) {
						t.Errorf("%s trace=%v: metric %s is printed but not declared in BENCHMARK.json", name, trace, got)
					}
				}
			}

			// The human-readable report names each metric exactly once.
			var buf bytes.Buffer
			printReport(&buf, rep)
			all := append(append([]declaredMetric(nil), d.EndToEnd...), declared...)
			if !trace {
				all = d.EndToEnd
			}
			for _, m := range all {
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q is malformed", m.Name)
				}
				if n := strings.Count(buf.String(), "\n  "+m.Name+" "); n != 1 {
					t.Errorf("%s trace=%v: report prints %s %d times, want once", name, trace, m.Name, n)
				}
			}
			if trace {
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}

func zeroIsHealthy(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return d.zeroOK
		}
	}
	return false
}

// TestDroppedMeasurementFailsTheRun deletes one measured per-layer metric
// and expects the completeness check of the traced run to name it: a
// measurement that breaks must not read as "layer not entered".
func TestDroppedMeasurementFailsTheRun(t *testing.T) {
	w := newWorkload("swgg-inproc", tinySizes)
	p := metrics{}
	for _, d := range perLayer {
		if !hasAnyPrefix(d.name, w.absent()) {
			p.set(d.name, 1)
		}
	}
	p.zeroAbsent(w.absent())
	if bad := p.incomplete(w.absent()); len(bad) != 0 {
		t.Fatalf("complete metrics reported incomplete: %v", bad)
	}
	delete(p, "cas.putblock_us")
	p.set("comm.messages_per_job", 0)
	bad := strings.Join(p.incomplete(w.absent()), "; ")
	if !strings.Contains(bad, "cas.putblock_us was not measured") || !strings.Contains(bad, "comm.messages_per_job is 0") {
		t.Fatalf("incomplete() = %q, want both the dropped and the zeroed metric named", bad)
	}
}

func declaredHas(ms []declaredMetric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestWrongChecksumCountsAsFailed feeds a repetition a reference digest
// that cannot match and expects the job to be counted as failed rather
// than the run to abort or pass.
func TestWrongChecksumCountsAsFailed(t *testing.T) {
	w := newWorkload("edit-inproc", tinySizes).(*inproc)
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	w.job.want.rows[len(w.job.want.rows)/2] ^= 1
	s, err := w.rep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if frac := ratio(float64(s.failed), float64(s.jobs)); frac <= 0 {
		t.Fatalf("failed_frac = %v after corrupting the reference checksum, want > 0", frac)
	}
}

// TestSpansFormATree checks the traced run's span file: every span has a
// recorded parent or is a root, and the replay's stages account for
// nearly all of its wall time.
func TestSpansFormATree(t *testing.T) {
	rep, err := runWorkload(runOptions{workload: "swgg-inproc", seed: 7, trace: true, sz: tinySizes, outDir: t.TempDir()}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayStageShare < 0.5 || rep.ReplayStageShare > 1 {
		t.Errorf("the replay's stages cover %.2f of its wall time, want most of it and no more than all", rep.ReplayStageShare)
	}
	data, err := os.ReadFile(rep.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{0: true}
	for _, s := range file.Spans {
		if !ids[s.Parent] {
			t.Fatalf("span %d (%s) names parent %d, which is not recorded before it", s.ID, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d (%s) was never closed", s.ID, s.Name)
		}
		ids[s.ID] = true
	}
	if len(file.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
}
