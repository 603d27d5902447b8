package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runChild runs one workload in a process of its own — set-up time and
// peak RSS are per-process readings — and returns its full report.
func runChild(workload string, seed int64, trace bool, tag string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "report-"+workload+tag+".json")
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-trace="+strconv.FormatBool(trace),
		"-json", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return rep, nil
}

// environment is recorded in every combined report, so a row of the
// BENCH_<pr>.json trajectory says where it was measured.
type environment struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Commit    string `json:"commit"`
}

func currentEnvironment() environment {
	commit := "unknown"
	// Outside a git work tree (an exported checkout) there is no commit to record.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit}
}

// runAll runs every workload once and prints every metric by name.
func runAll(seed int64, trace bool, jsonPath string) int {
	combined := struct {
		Environment environment `json:"environment"`
		Workloads   []*report   `json:"workloads"`
	}{Environment: currentEnvironment()}
	ok := true
	for _, name := range workloadNames {
		rep, err := runChild(name, seed, trace, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		ok = ok && rep.Correct
		combined.Workloads = append(combined.Workloads, rep)
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, combined); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: at least one workload reported failed jobs or leaked entries")
		return 1
	}
	return 0
}

// exactCounters are the per-layer metrics read from the system's own
// counters; between two sets of one build they must not move at all,
// except as counterTolerance allows. The cas wire-layer counts are left
// out: they depend on which worker drew which vertex.
var exactCounters = []string{
	"comm.messages_per_job", "comm.payload_mb_per_job", "core.task_mb_per_job",
	"core.dispatches_per_job", "core.subtasks_per_job",
	"cas.master_hits", "cas.master_misses", "cas.warm_hit_frac",
	"sim.fair-share.makespan_vms", "sim.straggler-rescue.makespan_vms",
	"sim.tune-mixed-auto.makespan_vms", "sim.warm-cache.makespan_vms",
	"go.alloc_mb_per_job",
}

// counterTolerance is the relative movement allowed to the counters that
// are not exact by nature: allocation volume, which depends on how far
// slices happened to grow, and task bytes, which on the fleet depend on
// which worker already held which block (a held block ships as a
// 48-byte reference; six sets ranged over 6-8 % there, and over 0.9-1.6 %
// in allocation volume, against 0.0001 % in-process).
var counterTolerance = map[string]float64{
	"go.alloc_mb_per_job":  0.03,
	"core.task_mb_per_job": 0.15,
}

// selfCheck runs every workload sets times, the order of workloads
// alternating between sets and each set on another seed, splits the sets
// into a first and a second half, and applies the acceptance driver's rule
// for a benchmark to the build against itself: for every end-to-end
// metric the second half's median may not be worse than the first's by
// more than the metric's bound, and (from four sets on) the quartile
// spread of all values may not exceed it — except setup_s's, which the
// driver does not hold to its bound either (a raw time of 0.2-0.9 s; its
// spread is printed). With trace it also demands that the exact counters
// repeat.
func selfCheck(sets int, seed int64, trace bool) int {
	if sets < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs at least 2 sets")
		return 2
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> one value per set
	samples := make(map[string]map[string][]*summary)
	for _, name := range workloadNames {
		values[name], samples[name] = make(map[string][]float64), make(map[string][]*summary)
	}
	for set := 0; set < sets; set++ {
		order := append([]string(nil), workloadNames...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			rep, err := runChild(name, seed+int64(set), trace, "-set"+strconv.Itoa(set))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s set %d: %d failed jobs, %d leaked entries\n", name, set, rep.Failed, rep.Leaked)
				return 1
			}
			for _, src := range []metrics{rep.EndToEnd, rep.PerLayer} {
				for metric, m := range src {
					values[name][metric] = append(values[name][metric], m.Value)
					samples[name][metric] = append(samples[name][metric], m.Sample)
				}
			}
		}
	}

	bad := 0
	fmt.Printf("\nself-check over %d sets (first half vs second half of the sets)\n", sets)
	fmt.Printf("%-18s %-22s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "worse%", "spread%", "bound%", "per-set samples (q1/median/q3 n)")
	for _, name := range workloadNames {
		for _, def := range endToEnd {
			vs := values[name][def.name]
			a, b := median(vs[:sets/2]), median(vs[sets/2:])
			worse := (b - a) / a
			if def.better == "higher" {
				worse = (a - b) / a
			}
			all := summarize(vs)
			spread := math.NaN()
			if sets >= 4 {
				spread = (all.Q3 - all.Q1) / all.Median
			}
			verdict := ""
			// With only two sets a "half" is a single run, so the rule is
			// applied both ways round.
			if worse > def.bound || (sets < 4 && -worse > def.bound) || (def.name != "setup_s" && spread > def.bound) {
				verdict = "  <-- outside bound"
				bad++
			}
			var per []string
			for _, s := range samples[name][def.name] {
				if s != nil {
					per = append(per, fmt.Sprintf("%.4g/%.4g/%.4g n=%d", s.Q1, s.Median, s.Q3, s.N))
				}
			}
			fmt.Printf("%-18s %-22s %12.6g %12.6g %8.2f %8.2f %8.0f  %s%s\n", name, def.name, a, b,
				100*worse, 100*spread, 100*def.bound, strings.Join(per, " | "), verdict)
		}
		if !trace {
			continue
		}
		for _, metric := range exactCounters {
			vs := values[name][metric]
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			verdict := ""
			if hi-lo > counterTolerance[metric]*hi {
				verdict = "  <-- counter moved"
				bad++
			}
			fmt.Printf("%-18s %-40s min %-14.8g max %-14.8g%s\n", name, metric, lo, hi, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("self-check: %d comparisons outside their bound\n", bad)
		return 1
	}
	fmt.Println("self-check: every end-to-end metric agrees within its bound")
	return 0
}
