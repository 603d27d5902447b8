package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the call-graph layer shared by the lock-hierarchy and
// blocking-under-lock rules: a conservative call graph over the loaded
// packages plus per-function *may-acquire* (which lock classes any path
// through the function can take) and *may-block* (channel ops, network
// writes, WaitGroup/Cond waits, ...) summaries, propagated to a fixed
// point. The per-function scan then walks each body lexically — the
// same optimistic branch-merging walk as lock-across-channel — and
// consults the summaries at every call site, so a violation three
// helpers deep is reported at the call that commits it.

// lockClass names a mutex by role rather than by instance:
// "pkg.Type.field" for a struct-field mutex (the package name, not the
// import path, so fixtures and the repo read the same), "pkg.var" for a
// package-level one. Function-local mutexes have no class and are
// invisible to the interprocedural rules.
type lockClass string

// classOfExpr classifies the expression denoting a mutex (or cond): a
// field selection yields pkg.Type.field keyed by the field's declaring
// struct, a package-level variable yields pkg.var. Anything else —
// locals, map/slice elements — has no stable cross-function identity
// and classifies as "".
func classOfExpr(p *Package, e ast.Expr) lockClass {
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return classOfExpr(p, x.X)
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lockClass(v.Pkg().Name() + "." + v.Name())
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			for {
				ptr, ok := t.(*types.Pointer)
				if !ok {
					break
				}
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lockClass(named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + sel.Obj().Name())
			}
			return ""
		}
		// Qualified package-level variable (pkg.Var).
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lockClass(v.Pkg().Name() + "." + v.Name())
		}
	}
	return ""
}

// classifyLockOp classifies call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex/RWMutex and returns the receiver's lock class ("" for an
// unclassifiable receiver).
func classifyLockOp(p *Package, call *ast.CallExpr) (lockOpKind, lockClass) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, ""
	}
	if !isMethodOf(fn, "sync", "Mutex", fn.Name()) && !isMethodOf(fn, "sync", "RWMutex", fn.Name()) {
		return opNone, ""
	}
	recv := receiverOf(call)
	if recv == nil {
		return opNone, ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock, classOfExpr(p, recv)
	case "Unlock", "RUnlock":
		return opUnlock, classOfExpr(p, recv)
	}
	return opNone, ""
}

// intrinsicBlock reports the blocking nature of a call that the call
// graph cannot see through: stdlib waits, network and buffered-stream
// I/O, and the comm.Transport interface. Channel operations are handled
// at the AST level, sync.Cond.Wait separately (its locker is exempt).
func intrinsicBlock(p *Package, call *ast.CallExpr) string {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return ""
	}
	switch {
	case isMethodOf(fn, "sync", "WaitGroup", "Wait"):
		return "sync.WaitGroup.Wait"
	case isPkgFunc(fn, "time", "Sleep"):
		return "time.Sleep"
	case isPkgFunc(fn, "io", "ReadFull"), isPkgFunc(fn, "io", "Copy"), isPkgFunc(fn, "io", "ReadAll"):
		return "io." + fn.Name()
	case isMethodOf(fn, "net", "Conn", "Read"), isMethodOf(fn, "net", "Conn", "Write"),
		isMethodOf(fn, "net", "TCPConn", "Read"), isMethodOf(fn, "net", "TCPConn", "Write"):
		return "net.Conn." + fn.Name()
	case isMethodOf(fn, "bufio", "Reader", "Read"), isMethodOf(fn, "bufio", "Reader", "ReadByte"),
		isMethodOf(fn, "bufio", "Reader", "Peek"):
		return "bufio.Reader." + fn.Name()
	case isTransportCall(fn):
		return "comm.Transport." + fn.Name()
	}
	return ""
}

// isTransportCall matches Send/Recv through the comm.Transport
// interface, whose implementations (channel network, TCP) all block.
func isTransportCall(fn *types.Func) bool {
	if fn.Name() != "Send" && fn.Name() != "Recv" {
		return false
	}
	return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/comm") &&
		isMethodOf(fn, fn.Pkg().Path(), "Transport", fn.Name())
}

// fnKey normalizes a called *types.Func to its generic origin so method
// calls on instantiated types (job[T], master[T]) resolve to the same
// node the declaration defined.
func fnKey(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// funcFacts is one function's node in the call graph: the facts read
// directly off its body, plus the transitive summaries. Goroutine
// bodies and non-inline function literals are excluded from the direct
// facts — they do not run under the caller's locks — while
// immediately-invoked literals, sync.Once.Do bodies and deferred
// literals do (same goroutine, same critical section).
type funcFacts struct {
	pkg      *Package
	acquires map[lockClass]token.Pos // direct lock/RLock sites
	blocks   []blockSite             // direct may-block operations
	calls    []*types.Func           // statically resolvable callees

	sumAcq   map[lockClass]bool // transitive may-acquire
	sumBlock bool               // transitive may-block
}

type blockSite struct {
	what string
	pos  token.Pos
}

// concEngine holds the interprocedural facts for one loaded program.
type concEngine struct {
	fset  *token.FileSet
	funcs map[*types.Func]*funcFacts
	// condLocker maps a sync.Cond's class to the class of the mutex it
	// was constructed over (sync.NewCond(&x.mu)): Wait releases that
	// mutex, so holding it across Wait is the correct idiom.
	condLocker map[lockClass]lockClass
}

func newConcEngine(pkgs []*Package) *concEngine {
	e := &concEngine{
		funcs:      map[*types.Func]*funcFacts{},
		condLocker: map[lockClass]lockClass{},
	}
	for _, p := range pkgs {
		if e.fset == nil {
			e.fset = p.Fset
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				e.funcs[fnKey(fn)] = e.collect(p, fd.Body)
			}
			e.collectCondLockers(p, f)
		}
	}
	e.solve()
	return e
}

// collectCondLockers records every sync.NewCond(&x) construction,
// mapping the cond's class to the locker's.
func (e *concEngine) collectCondLockers(p *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 || !isPkgFunc(calleeFunc(p.Info, call), "sync", "NewCond") {
				continue
			}
			cond := classOfExpr(p, as.Lhs[i])
			locker := classOfExpr(p, call.Args[0])
			if cond != "" && locker != "" {
				e.condLocker[cond] = locker
			}
		}
		return true
	})
}

// collect reads one function body's direct facts.
func (e *concEngine) collect(p *Package, body *ast.BlockStmt) *funcFacts {
	ff := &funcFacts{pkg: p, acquires: map[lockClass]token.Pos{}}
	inline := inlineLits(body)
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return inline[n]
			case *ast.GoStmt:
				// The goroutine runs without our locks; only the call's
				// arguments are evaluated here.
				for _, a := range n.Call.Args {
					walk(a)
				}
				return false
			case *ast.SendStmt:
				ff.blocks = append(ff.blocks, blockSite{"send on " + exprString(p.Fset, n.Chan), n.Arrow})
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					ff.blocks = append(ff.blocks, blockSite{"receive from " + exprString(p.Fset, n.X), n.OpPos})
				}
			case *ast.RangeStmt:
				if isChanType(p.Info.Types[n.X].Type) {
					ff.blocks = append(ff.blocks, blockSite{"range over channel " + exprString(p.Fset, n.X), n.For})
				}
			case *ast.SelectStmt:
				// The select is the blocking operation (when it has no
				// default); its comm clauses are not blocking ops of
				// their own — a select with a default is the
				// non-blocking poll idiom (jb.finished, mc.stopped).
				if !selectHasDefault(n) {
					ff.blocks = append(ff.blocks, blockSite{"select", n.Select})
				}
				for _, cl := range n.Body.List {
					for _, st := range cl.(*ast.CommClause).Body {
						walk(st)
					}
				}
				return false
			case *ast.CallExpr:
				if kind, c := classifyLockOp(p, n); kind != opNone {
					if kind == opLock && c != "" {
						ff.acquires[c] = n.Pos()
					}
					return true
				}
				fn := fnKey(calleeFunc(p.Info, n))
				if isMethodOf(fn, "sync", "Cond", "Wait") {
					// Wait blocks regardless of whose locker it releases;
					// only the direct scan can exempt a held locker.
					ff.blocks = append(ff.blocks, blockSite{"sync.Cond.Wait on " + exprString(p.Fset, receiverOf(n)), n.Pos()})
					return true
				}
				if what := intrinsicBlock(p, n); what != "" {
					ff.blocks = append(ff.blocks, blockSite{what, n.Pos()})
					return true
				}
				if fn != nil {
					ff.calls = append(ff.calls, fn)
				}
			}
			return true
		})
	}
	walk(body)
	return ff
}

// inlineLits marks the function literals that execute on the caller's
// goroutine within the caller's critical sections: immediately-invoked
// literals, sync.Once.Do bodies and deferred literals. Everything else
// (callbacks stored or passed onward, goroutine bodies) is analyzed as
// its own root instead.
func inlineLits(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	inline := map[*ast.FuncLit]bool{}
	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if len(stack) > 0 {
			if _, isGo := stack[len(stack)-1].(*ast.GoStmt); isGo {
				return true
			}
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			inline[lit] = true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" && len(call.Args) == 1 {
			if lit, ok := call.Args[0].(*ast.FuncLit); ok {
				inline[lit] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
				inline[lit] = true
			}
		}
		return true
	})
	return inline
}

func selectHasDefault(st *ast.SelectStmt) bool {
	for _, cl := range st.Body.List {
		if cl.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// solve propagates acquire and block facts over the call graph to a
// fixed point (monotone set union, so iteration order is irrelevant and
// cycles converge).
func (e *concEngine) solve() {
	for _, f := range e.funcs {
		f.sumAcq = map[lockClass]bool{}
		for c := range f.acquires {
			f.sumAcq[c] = true
		}
		f.sumBlock = len(f.blocks) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, f := range e.funcs {
			for _, callee := range f.calls {
				g := e.funcs[callee]
				if g == nil {
					continue
				}
				for c := range g.sumAcq {
					if !f.sumAcq[c] {
						f.sumAcq[c] = true
						changed = true
					}
				}
				if g.sumBlock && !f.sumBlock {
					f.sumBlock = true
					changed = true
				}
			}
		}
	}
}

// blockChain renders why fn may block, following one call-graph path
// for the diagnostic ("Send: net.Conn.Write").
func (e *concEngine) blockChain(fn *types.Func, depth int) string {
	f := e.funcs[fn]
	if f == nil || depth > 6 {
		return "may block"
	}
	if len(f.blocks) > 0 {
		return f.blocks[0].what
	}
	for _, callee := range f.calls {
		if g := e.funcs[callee]; g != nil && g.sumBlock {
			return callee.Name() + ": " + e.blockChain(callee, depth+1)
		}
	}
	return "may block"
}

// acqChain renders how fn comes to acquire class c ("" when fn takes it
// directly, " via noteAttemptGone" through one call hop).
func (e *concEngine) acqChain(fn *types.Func, c lockClass, depth int) string {
	f := e.funcs[fn]
	if f == nil || depth > 6 {
		return ""
	}
	if _, ok := f.acquires[c]; ok {
		return ""
	}
	for _, callee := range f.calls {
		if g := e.funcs[callee]; g != nil && g.sumAcq[c] {
			return fmt.Sprintf(" via %s%s", callee.Name(), e.acqChain(callee, c, depth+1))
		}
	}
	return ""
}
