// Command easyhps-vet runs the EasyHPS project-specific static-analysis
// suite (internal/lint) over the repository: concurrency and messaging
// invariants the compiler cannot check — cancellable channel operations,
// timer hygiene in the fault-tolerance paths, no mutexes held across
// blocking operations, no detached contexts in library code, the declared
// lock hierarchy, exhaustive switches over comm.Kind and consistent
// sync/atomic use.
//
// Usage:
//
//	easyhps-vet [-json|-sarif] [-rules ctx-select,timer-leak] [packages...]
//
// Packages default to ./... resolved against the working directory.
// -json emits findings as a JSON array; -sarif emits a SARIF 2.1.0 log
// for CI code-annotation surfaces (the two are mutually exclusive).
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage
// or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("easyhps-vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	ruleList := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	listRules := fs.Bool("list", false, "list the available rules and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "easyhps-vet: -json and -sarif are mutually exclusive")
		return 2
	}

	all := lint.AllRules()
	if *listRules {
		for _, r := range all {
			fmt.Printf("%-20s %s\n", r.Name(), r.Doc())
		}
		return 0
	}

	rules := all
	if *ruleList != "" {
		byName := map[string]lint.Rule{}
		for _, r := range all {
			byName[r.Name()] = r
		}
		rules = nil
		for _, name := range strings.Split(*ruleList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			r, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "easyhps-vet: unknown rule %q (use -list)\n", name)
				return 2
			}
			rules = append(rules, r)
		}
		if len(rules) == 0 {
			fmt.Fprintln(os.Stderr, "easyhps-vet: -rules selected no rules")
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "easyhps-vet:", err)
		return 2
	}
	prog, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "easyhps-vet:", err)
		return 2
	}

	findings := lint.NewRunner(prog.Fset, rules...).Run(prog.Pkgs)
	if *sarifOut {
		if err := lint.WriteSARIF(os.Stdout, findings, rules, cwd); err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-vet:", err)
			return 2
		}
	} else if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(findings))
		for _, f := range findings {
			out = append(out, finding{
				File:    relPath(cwd, f.Pos.Filename),
				Line:    f.Pos.Line,
				Rule:    f.Rule,
				Message: f.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: %s: %s\n", relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Rule, f.Msg)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "easyhps-vet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// relPath shortens abs to a path relative to base when that is tidier.
func relPath(base, abs string) string {
	rel, err := filepath.Rel(base, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return abs
	}
	return rel
}
