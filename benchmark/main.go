// Command benchmark is the repository's benchmark: five real-compute
// workloads driven through the exported API of the shipped packages,
// end-to-end metrics normalised by a benchmark-owned sequential
// reference, and a per-layer budget for one vertex's trip through the
// system. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark -workload <name|all> [-seed N] [-trace] [-json FILE]
//	go run ./benchmark -selfcheck [-sets N] [-trace]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

const (
	defaultSeed = 20130520
	// runSeconds is BENCHMARK.json's run_seconds: about how long the fixed
	// repetition counts of sizes take on the machine this was defined on.
	runSeconds = 15
	outDir     = "benchmark/out"
)

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:]))
}

// boolArgs rewrites "-trace 0" and "-trace 1" (the form the acceptance
// driver passes) into "-trace=false" and "-trace=true", so the flag can
// stay a plain boolean for people typing "-trace".
func boolArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+strconv.FormatBool(args[i+1] == "1"))
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(start time.Time, args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: one of "+fmt.Sprint(workloadNames)+", or all")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs; the program under test never sees it")
	secs := fs.Float64("seconds", runSeconds, "not a setting: the acceptance driver passes BENCHMARK.json's run_seconds here, and any other value is refused, because repetition counts are fixed")
	trace := fs.Bool("trace", false, "after the untraced measurement, run the traced repetitions, the staged replay and the layer micro-measurements, and report per-layer metrics")
	jsonPath := fs.String("json", "", "also write the full report (every metric, with samples) to this file")
	selfcheck := fs.Bool("selfcheck", false, "run every workload in several alternating sets and compare them by the bounds in BENCHMARK.json")
	sets := fs.Int("sets", 6, "with -selfcheck: number of sets; their first and second halves are compared")
	if err := fs.Parse(boolArgs(args)); err != nil {
		return 2
	}
	if *secs != runSeconds {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds %g: a run always does the same work (about %d s); its length is not a setting\n", *secs, runSeconds)
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (go run ./benchmark ...): no go.mod here")
		return 2
	}
	switch {
	case *selfcheck:
		return selfCheck(*sets, *seed, *trace)
	case *workload == "all":
		return runAll(*seed, *trace, *jsonPath)
	case *workload == "":
		fs.Usage()
		return 2
	}

	rep, err := runWorkload(runOptions{
		workload: *workload, seed: *seed, trace: *trace, sz: fullSizes, outDir: outDir,
	}, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printReport(os.Stdout, rep)
	fmt.Println(resultLine(rep))
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the last line of standard output: one JSON object with the
// run's verdict and the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
func resultLine(rep *report) string {
	src := rep.EndToEnd
	if rep.Traced {
		src = rep.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]value, len(src))}
	for name, m := range src {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or an infinity can fail here; report it as a wrong run.
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`
	}
	return string(line)
}

// printReport lists every metric the run produced by name, with its unit.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s  seed %d  %d repetitions in %.1f s  %d jobs attempted, %d failed, %d leaked entries\n",
		rep.Workload, rep.Seed, rep.Reps, rep.MeasuredS, rep.Attempted, rep.Failed, rep.Leaked)
	fmt.Fprintf(w, "peak RSS method: %s\n", rep.RSSMethod)
	printMetrics(w, "end-to-end", rep.EndToEnd)
	if rep.Traced {
		printMetrics(w, "per-layer", rep.PerLayer)
		fmt.Fprintf(w, "spans: %s (the replay's stages cover %.1f %% of its wall time)\n", rep.TraceFile, 100*rep.ReplayStageShare)
	}
}

func printMetrics(w io.Writer, title string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, name := range names {
		e := m[name]
		fmt.Fprintf(w, "  %-40s %14.6g %-9s", name, e.Value, e.Unit)
		if s := e.Sample; s != nil {
			fmt.Fprintf(w, "  q1 %.6g  median %.6g  q3 %.6g  n %d", s.Q1, s.Median, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
}
