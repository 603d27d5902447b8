// Package lint is the project-specific static-analysis suite of EasyHPS.
//
// The runtime's correctness rests on invariants the Go compiler cannot
// see: every blocking channel operation in the master/slave loops must be
// cancellable, the timeout-based fault-tolerance path must not leak
// timers, library code must not mint detached contexts, and switches over
// the wire protocol's comm.Kind must reject unknown frames. No mutex may
// be held across a channel operation; on top of that an interprocedural
// layer (conc.go) — a conservative call graph with per-function
// may-acquire/may-block summaries — enforces the mutex hierarchy declared
// in lint/lockorder.conf and keeps its mutexes clear of every blocking
// call, transitively. This package encodes those invariants as mechanical
// checks over go/ast + go/types (stdlib only, no external analysis
// framework) so they stay true as the runtime grows.
//
// Rules implement PackageRule (checked one package at a time) or
// ProgramRule (checked once over the whole loaded package set, for
// cross-package invariants such as the lock hierarchy). Findings are
// reported as "file:line: rule: message" and can be suppressed with a
//
//	//lint:ignore <rule> <reason>
//
// comment on the flagged line or the line directly above it. An ignore
// directive with an empty reason is itself a finding: suppressions must
// be auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical "file:line: rule: message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Name is the package name ("core", "main").
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// IsMain reports whether p is a command, not a library.
func (p *Package) IsMain() bool { return p.Name == "main" }

// Rule is a named invariant check.
type Rule interface {
	// Name is the rule identifier used in findings and ignore
	// directives ("ctx-select").
	Name() string
	// Doc is a one-line description of the invariant the rule protects.
	Doc() string
}

// Reporter records one finding of the running rule.
type Reporter func(pos token.Pos, format string, args ...any)

// PackageRule checks one package at a time.
type PackageRule interface {
	Rule
	CheckPackage(p *Package, report Reporter)
}

// ProgramRule checks the whole loaded package set at once (cross-package
// invariants).
type ProgramRule interface {
	Rule
	CheckProgram(pkgs []*Package, report Reporter)
}

// IgnoreRule is the pseudo-rule name under which malformed or unknown
// //lint:ignore directives are reported. It is always active and cannot
// be filtered out: a broken suppression must never silently suppress.
const IgnoreRule = "lint-ignore"

// AllRules returns the full rule set in stable order. The two
// interprocedural rules share one call-graph build and read the lock
// hierarchy from lint/lockorder.conf at the analyzed module's root
// (declaring no mutex when the file is absent).
func AllRules() []Rule {
	lh, bul := NewConcRules(nil)
	return []Rule{
		NewCtxSelect(),
		NewTimerLeak(),
		NewNakedBackground(),
		lh,
		bul,
		NewKindExhaustive(),
	}
}

// Runner applies a rule set to a loaded program and filters the findings
// through //lint:ignore directives.
type Runner struct {
	Fset  *token.FileSet
	Rules []Rule
}

// NewRunner builds a runner over fset with the given rules (AllRules()
// when none are given).
func NewRunner(fset *token.FileSet, rules ...Rule) *Runner {
	if len(rules) == 0 {
		rules = AllRules()
	}
	return &Runner{Fset: fset, Rules: rules}
}

// Run checks every package and returns the surviving findings sorted by
// position. Findings suppressed by a well-formed //lint:ignore directive
// are dropped; malformed directives are reported under IgnoreRule.
func (r *Runner) Run(pkgs []*Package) []Finding {
	var raw []Finding
	for _, rule := range r.Rules {
		report := r.reporter(rule.Name(), &raw)
		if pr, ok := rule.(PackageRule); ok {
			for _, p := range pkgs {
				pr.CheckPackage(p, report)
			}
		}
		if xr, ok := rule.(ProgramRule); ok {
			xr.CheckProgram(pkgs, report)
		}
	}

	// Directive rule names are validated against the full rule universe,
	// not just the rules selected for this run: filtering with -rules
	// must not turn every other rule's suppressions into findings.
	dirs := collectDirectives(r.Fset, pkgs)
	known := map[string]bool{IgnoreRule: true}
	for _, rule := range AllRules() {
		known[rule.Name()] = true
	}
	for _, rule := range r.Rules {
		known[rule.Name()] = true
	}

	var out []Finding
	for _, d := range dirs {
		if d.reason == "" {
			out = append(out, Finding{
				Pos:  d.pos,
				Rule: IgnoreRule,
				Msg:  "ignore directive needs a reason: //lint:ignore <rule> <reason>",
			})
			continue
		}
		for _, name := range d.rules {
			if !known[name] {
				out = append(out, Finding{
					Pos:  d.pos,
					Rule: IgnoreRule,
					Msg:  fmt.Sprintf("ignore directive names unknown rule %q", name),
				})
			}
		}
	}
	for _, f := range raw {
		if suppressed(dirs, f) {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

func (r *Runner) reporter(rule string, sink *[]Finding) Reporter {
	return func(pos token.Pos, format string, args ...any) {
		*sink = append(*sink, Finding{
			Pos:  r.Fset.Position(pos),
			Rule: rule,
			Msg:  fmt.Sprintf(format, args...),
		})
	}
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos    token.Position
	rules  []string // comma-separated rule list after "lint:ignore"
	reason string
}

// collectDirectives parses every //lint:ignore comment in the loaded
// files. A malformed directive (no rule at all) is represented with an
// empty rules list and empty reason so validation reports it.
func collectDirectives(fset *token.FileSet, pkgs []*Package) []directive {
	var out []directive
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "lint:ignore") {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
					d := directive{pos: fset.Position(c.Pos())}
					if rest != "" {
						parts := strings.SplitN(rest, " ", 2)
						for _, name := range strings.Split(parts[0], ",") {
							if name = strings.TrimSpace(name); name != "" {
								d.rules = append(d.rules, name)
							}
						}
						if len(parts) == 2 {
							d.reason = strings.TrimSpace(parts[1])
						}
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// suppressed reports whether a well-formed directive on the finding's
// line or the line directly above names the finding's rule.
func suppressed(dirs []directive, f Finding) bool {
	for _, d := range dirs {
		if d.reason == "" || d.pos.Filename != f.Pos.Filename {
			continue
		}
		if d.pos.Line != f.Pos.Line && d.pos.Line != f.Pos.Line-1 {
			continue
		}
		for _, name := range d.rules {
			if name == f.Rule {
				return true
			}
		}
	}
	return false
}
