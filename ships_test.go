package easyhps_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// shipsAllowlist names the library functions the guard below lets stand
// without a shipped caller, each with its reason: test seams, the scenario
// checker, the kernel fixture that is the only kernel of a library
// pattern, and the sequential references of the kernels whose cells are
// not int32, which no shipped interface reads. A name is "pkg.Func" or
// "pkg.Type.Method".
var shipsAllowlist = map[string]string{
	"core.Driver.Progress":      "the notifier the scheduling tests wait on instead of polling (scripts/ci.sh)",
	"core.Registry.Members":     "the member table the membership tests read",
	"engine.Job.LiveAttempts":   "how the engine tests see a backup racing its original",
	"sim.Scenario.Check":        "the .scenario expectation checker the scenario suite runs",
	"dp.NewDominance43":         "the only kernel of the Dominance pattern",
	"dp.CYK.Sequential":         "the reference the uint64-cell CYK runs are checked against",
	"dp.MatrixChain.Sequential": "the reference answer of the public easyhps.MatrixChain",
	"dp.RandomGrammar":          "the random CNF grammars that stress CYK's uint64 cells past ParenGrammar",
	"dp.Slow":                   "slows a kernel so that a test can kill, cancel or outrun a block mid-run",
}

// TestEveryLibraryFunctionShips holds the non-test tree to what the system
// runs: every top-level function or method, and every package-level type,
// const and var, of a library package under internal/ has a use somewhere
// in the program the commands, examples and benchmark build (test files
// are not loaded). Exempt are a method by which its receiver implements an
// interface in view (one of the program's, an anonymous one in a type
// assertion, an imported package's exported one, error), packages that
// only tests import, and shipsAllowlist. A type's own methods do not count
// as its uses. Struct fields are not guarded.
func TestEveryLibraryFunctionShips(t *testing.T) {
	prog, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	var bad []string
	for _, name := range unshipped(prog) {
		found[name] = true
		if _, ok := shipsAllowlist[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("library functions or declarations with no use outside tests (delete them, move a test oracle into a _test.go file, or allowlist a test seam with its reason):\n\t%s",
			strings.Join(bad, "\n\t"))
	}
	var stale []string
	for name := range shipsAllowlist {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("allowlist entries that are shipped or gone (drop them):\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// unshipped returns, sorted, the guarded functions of prog that nothing
// outside their own body uses, and the guarded types, consts and vars that
// nothing outside their own declaration and, for a type, its methods uses.
func unshipped(prog *lint.Program) []string {
	uses := map[types.Object][]token.Pos{}
	view := &interfaces{args: map[string][]types.Type{}}
	view.add(types.Universe.Lookup("error").Type())
	imported := map[string]bool{}
	loaded := map[*types.Package]bool{}
	for _, p := range prog.Pkgs {
		loaded[p.Pkg] = true
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && (loaded[p] || tn.Exported()) {
				view.add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range prog.Pkgs {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			uses[obj] = append(uses[obj], id.Pos())
		}
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				view.add(tv.Type)
				view.addArgs(tv.Type)
			}
		}
		for _, q := range p.Pkg.Imports() {
			imported[q.Path()] = true
		}
		visit(p.Pkg)
	}

	var out []string
	for _, p := range prog.Pkgs {
		if p.IsMain() || !strings.Contains(p.Path, "/internal/") || !imported[p.Path] {
			continue
		}
		// The methods of each type, whose uses of it do not count.
		methods := map[types.Object][]ast.Node{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if fn, _ := p.Info.Defs[fd.Name].(*types.Func); fn != nil {
						tn := recvNamed(fn).Obj()
						methods[tn] = append(methods[tn], fd)
					}
				}
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, s := range gd.Specs {
						var ids []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							obj := p.Info.Defs[id]
							if obj != nil && id.Name != "_" && !usedOutside(uses[obj], append([]ast.Node{s}, methods[obj]...)...) {
								out = append(out, p.Pkg.Name()+"."+id.Name)
							}
						}
					}
					continue
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || usedOutside(uses[fn], fd) {
					continue
				}
				name := p.Pkg.Name() + "."
				if fd.Recv != nil {
					if view.implementedBy(fn) {
						continue
					}
					name += recvNamed(fn).Obj().Name() + "."
				}
				out = append(out, name+fn.Name())
			}
		}
	}
	sort.Strings(out)
	return out
}

// interfaces is the set of interfaces a program can see. A generic one is
// kept uninstantiated and checked under every type-argument list the
// program instantiates something with, as is a generic receiver.
type interfaces struct {
	plain   []*types.Interface
	generic []*types.Named
	args    map[string][]types.Type // by their spelling
}

func (v *interfaces) add(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
		v.generic = append(v.generic, n)
		return
	}
	v.plain = append(v.plain, it)
}

// addArgs records the lists of type arguments of the instances t is
// built from, but none that mentions a type parameter.
func (v *interfaces) addArgs(t types.Type) {
	switch t := t.(type) {
	case *types.Pointer:
		v.addArgs(t.Elem())
	case *types.Named:
		l := t.TypeArgs()
		if l.Len() == 0 {
			return
		}
		args := make([]types.Type, l.Len())
		key := ""
		for i := range args {
			args[i] = l.At(i)
			if _, ok := args[i].(*types.TypeParam); ok {
				return
			}
			v.addArgs(args[i])
			key += args[i].String() + ";"
		}
		v.args[key] = args
	}
}

// implementedBy reports whether fn's receiver type, or a pointer to it,
// implements an interface in view that declares fn's name.
func (v *interfaces) implementedBy(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	var recvs []types.Type
	if n, ok := recv.(*types.Named); ok && n.Origin().TypeParams().Len() > 0 {
		recvs = v.instances(n.Origin())
	} else {
		recvs = []types.Type{recv}
	}
	var ifaces []*types.Interface
	for _, it := range v.plain {
		if declares(it, fn.Name()) {
			ifaces = append(ifaces, it)
		}
	}
	for _, n := range v.generic {
		if declares(n.Underlying().(*types.Interface), fn.Name()) {
			for _, inst := range v.instances(n) {
				ifaces = append(ifaces, inst.Underlying().(*types.Interface))
			}
		}
	}
	for _, r := range recvs {
		for _, it := range ifaces {
			if types.Implements(r, it) || types.Implements(types.NewPointer(r), it) {
				return true
			}
		}
	}
	return false
}

// instances instantiates the generic type n with every recorded list of
// type arguments of its arity.
func (v *interfaces) instances(n *types.Named) []types.Type {
	var out []types.Type
	for _, args := range v.args {
		if len(args) != n.TypeParams().Len() {
			continue
		}
		if t, err := types.Instantiate(nil, n, args, true); err == nil {
			out = append(out, t)
		}
	}
	return out
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// usedOutside reports whether any of the use positions lies outside every
// one of the nodes, so that a function only calling itself does not count
// as used.
func usedOutside(uses []token.Pos, nodes ...ast.Node) bool {
outer:
	for _, pos := range uses {
		for _, n := range nodes {
			if pos >= n.Pos() && pos < n.End() {
				continue outer
			}
		}
		return true
	}
	return false
}

// recvNamed is fn's receiver type, without pointer.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
