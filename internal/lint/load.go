package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is a loaded, type-checked set of packages sharing one FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Load parses and type-checks the packages selected by patterns,
// resolved relative to dir. Patterns are directory paths ("./internal/comm")
// or recursive globs ("./...", "./internal/..."). Test files (_test.go)
// and testdata/vendor directories are skipped: the rules target runtime
// code, and tests legitimately use context.Background and friends.
//
// Loading uses only the standard toolchain: repo packages are
// type-checked from source with a module-aware importer, and standard
// library dependencies resolve through the go/importer source importer.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, modPath)
	dirs, err := expandPatterns(abs, patterns)
	if err != nil {
		return nil, err
	}
	pr := &Program{Fset: ld.fset}
	for _, d := range dirs {
		p, err := ld.loadDir(d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pr.Pkgs = append(pr.Pkgs, p)
		}
	}
	sort.Slice(pr.Pkgs, func(i, j int) bool { return pr.Pkgs[i].Path < pr.Pkgs[j].Path })
	return pr, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves patterns to the list of directories that hold
// at least one non-test .go file.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] && hasGoFiles(d) {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = cmp.Or(rest, ".")
		}
		d := pat
		if !filepath.IsAbs(d) {
			d = filepath.Join(base, d)
		}
		info, err := os.Stat(d)
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(d)
			continue
		}
		err = filepath.WalkDir(d, func(path string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !de.IsDir() {
				return nil
			}
			name := de.Name()
			if path != d && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loader type-checks module packages from source, memoized by import
// path, delegating standard-library imports to the toolchain's source
// importer.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string
	std     types.ImporterFrom
	cache   map[string]*Package
	loading map[string]bool // import-cycle guard
}

func newLoader(root, modPath string) *loader {
	// The source importer type-checks stdlib dependencies from GOROOT
	// source. With cgo disabled the pure-Go variants of net, os/user
	// etc. are selected, which is all the analysis needs (we only read
	// type structure, never build).
	build.Default.CgoEnabled = false
	ld := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		cache:   map[string]*Package{},
		loading: map[string]bool{},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil).(types.ImporterFrom)
	return ld
}

// Import implements types.Importer for the type-checker's use.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, ld.root, 0)
}

// ImportFrom routes module-internal import paths to the source loader
// and everything else to the stdlib importer.
func (ld *loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/") {
		p, err := ld.loadDir(ld.dirOf(path))
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: import %q resolves to a directory with no Go files", path)
		}
		return p.Pkg, nil
	}
	return ld.std.ImportFrom(path, dir, 0)
}

func (ld *loader) dirOf(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, ld.modPath), "/")
	return filepath.Join(ld.root, rel)
}

func (ld *loader) pathOf(dir string) (string, error) {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return ld.modPath, nil
	}
	return ld.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir. It returns (nil,
// nil) for directories without non-test Go files.
func (ld *loader) loadDir(dir string) (*Package, error) {
	importPath, err := ld.pathOf(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := ld.cache[importPath]; ok {
		return p, nil
	}
	if ld.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %q", importPath)
	}
	ld.loading[importPath] = true
	defer delete(ld.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		ok, err := build.Default.MatchFile(dir, name) // false for another platform's or a race build's file
		if e.IsDir() || (!ok && err == nil) || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		ld.cache[importPath] = nil
		return nil, nil
	}

	info := NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		Path:  importPath,
		Name:  tpkg.Name(),
		Fset:  ld.fset,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
	}
	ld.cache[importPath] = p
	return p, nil
}

// NewInfo allocates the types.Info maps the rules rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}
