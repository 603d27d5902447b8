package lint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// loadRepo loads the whole repository once per test process and shares
// the result: type-checking the module plus its stdlib dependencies from
// source costs a few seconds, and several tests want the same program.
var (
	repoOnce sync.Once
	repoProg *Program
	repoErr  error
)

func loadRepo(t *testing.T) *Program {
	t.Helper()
	repoOnce.Do(func() {
		repoProg, repoErr = Load(repoRoot(), "./...")
	})
	if repoErr != nil {
		t.Fatalf("loading repository: %v", repoErr)
	}
	return repoProg
}

func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

func TestLoadSinglePackage(t *testing.T) {
	prog, err := Load(repoRoot(), "./internal/sched")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prog.Pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(prog.Pkgs))
	}
	p := prog.Pkgs[0]
	if p.Path != "repro/internal/sched" || p.Name != "sched" {
		t.Fatalf("loaded %q (%s), want repro/internal/sched (sched)", p.Path, p.Name)
	}
	if p.Pkg == nil || p.Info == nil || len(p.Files) == 0 {
		t.Fatal("package missing type information or files")
	}
	if len(p.Pkg.Scope().Names()) == 0 {
		t.Fatal("type-checked package has an empty scope")
	}
}

func TestLoadRecursivePattern(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short mode")
	}
	prog := loadRepo(t)
	want := []string{
		"repro",
		"repro/cmd/easyhps-vet",
		"repro/internal/comm",
		"repro/internal/core",
		"repro/internal/lint",
		"repro/internal/server",
	}
	loaded := map[string]bool{}
	for _, p := range prog.Pkgs {
		loaded[p.Path] = true
	}
	for _, w := range want {
		if !loaded[w] {
			t.Errorf("pattern ./... did not load %s", w)
		}
	}
}

// TestRepositoryIsClean is the merge gate mirrored as a test: the full
// rule set over the full repository must report nothing, exactly like
// `easyhps-vet ./...` in scripts/ci.sh.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short mode")
	}
	prog := loadRepo(t)
	findings := NewRunner(prog.Fset).Run(prog.Pkgs)
	for _, f := range findings {
		t.Errorf("repository violation: %s", f)
	}
}

// TestKnownRuntimeViolationsAreSuppressed pins the audited escape
// hatches: the bounded join in Manager.Shutdown, the job manager's root
// context, and the driver's
// attach-serialized sends under attachMu all carry //lint:ignore
// directives with reasons — if someone deletes the code, the directive,
// or the reason, either this test or TestRepositoryIsClean moves.
func TestKnownRuntimeViolationsAreSuppressed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short mode")
	}
	prog := loadRepo(t)
	var audited []*Package
	for _, p := range prog.Pkgs {
		switch p.Path {
		case "repro/internal/core", "repro/internal/server", "repro/internal/fleet":
			audited = append(audited, p)
		}
	}
	// Run the raw rules without suppression by checking the directives
	// exist where the violations are.
	dirs := collectDirectives(prog.Fset, audited)
	wantRules := map[string]int{"ctx-select": 1, "naked-background": 1, "blocking-under-lock": 3}
	gotRules := map[string]int{}
	for _, d := range dirs {
		if d.reason == "" {
			t.Errorf("directive at %s has no reason", d.pos)
		}
		for _, r := range d.rules {
			gotRules[r]++
		}
	}
	for rule, want := range wantRules {
		if gotRules[rule] < want {
			t.Errorf("expected at least %d //lint:ignore %s directives in core+server+fleet, found %d", want, rule, gotRules[rule])
		}
	}
}

// TestConcurrencyRulesRepositoryClean is the merge gate for the three
// interprocedural/protocol rules alone: with the checked-in
// lint/lockorder.conf, the lock hierarchy, the no-blocking-under-lock
// discipline (modulo the audited fleet sends) and kind exhaustiveness
// all hold over the whole repository.
func TestConcurrencyRulesRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short mode")
	}
	prog := loadRepo(t)
	lh, bul := NewConcRules(nil)
	rules := []Rule{lh, bul, NewKindExhaustive()}
	for _, f := range NewRunner(prog.Fset, rules...).Run(prog.Pkgs) {
		t.Errorf("concurrency-rule violation: %s", f)
	}
}
