package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// LockOrder is the repository's declared mutex hierarchy: a sequence of
// levels, outermost first, read from lint/lockorder.conf. A mutex at
// level t may only be acquired while every held hierarchy mutex sits at
// a strictly lower (outer) level; acquiring at the same level — or the
// same class twice — is a violation too, since no order between peers
// is declared. Mutexes absent from the file are outside the hierarchy:
// lock-hierarchy ignores them, and blocking-under-lock checks them only
// against channel operations and WaitGroup.Wait in the same body.
type LockOrder struct {
	Path string // conf file, for diagnostics
	tier map[lockClass]int
}

// Tier returns c's 1-based level, or 0 when c is not in the hierarchy.
func (o *LockOrder) Tier(c lockClass) int {
	if o == nil {
		return 0
	}
	return o.tier[c]
}

// ParseLockOrder parses the lockorder.conf format: '#' comments, blank
// lines, and "level <class> [<class>...]" lines ordered outermost
// first. Classes are "pkg.Type.field" for struct-field mutexes or
// "pkg.var" for package-level ones.
func ParseLockOrder(src, path string) (*LockOrder, error) {
	o := &LockOrder{Path: path, tier: map[lockClass]int{}}
	tier := 0
	for i, line := range strings.Split(src, "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != "level" || len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"level <class> [<class>...]\", got %q", path, i+1, strings.TrimSpace(line))
		}
		tier++
		for _, name := range fields[1:] {
			c := lockClass(name)
			if _, dup := o.tier[c]; dup {
				return nil, fmt.Errorf("%s:%d: class %s listed twice", path, i+1, name)
			}
			o.tier[c] = tier
		}
	}
	return o, nil
}

// LoadLockOrder reads and parses a lockorder.conf file.
func LoadLockOrder(path string) (*LockOrder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseLockOrder(string(data), path)
}

// concAnalysis is the shared state behind the lock-hierarchy and
// blocking-under-lock rules: both are views over one engine build and
// one scan per loaded program, so the runner pays the interprocedural
// cost once.
type concAnalysis struct {
	ord      *LockOrder
	autoConf bool // locate <module>/lint/lockorder.conf from the program
	loaded   bool
	loadErr  error

	last  []*Package // program the cached results belong to
	hier  []rawFinding
	block []rawFinding
}

type rawFinding struct {
	pos token.Pos
	msg string
}

// NewConcRules builds the two interprocedural rules over ord. A nil ord
// means "locate lint/lockorder.conf at the analyzed module's root"; a
// missing file declares no mutex (the hierarchy is opt-in, and
// blocking-under-lock keeps its undeclared-mutex checks), while an
// unparseable one is itself reported as a finding.
func NewConcRules(ord *LockOrder) (*LockHierarchy, *BlockingUnderLock) {
	a := &concAnalysis{ord: ord, autoConf: ord == nil}
	return &LockHierarchy{a}, &BlockingUnderLock{a}
}

// LockHierarchy enforces the declared partial order over the repo's
// mutexes, transitively through calls: dispatch paths that take
// Fleet.mu, per-member attach mutexes and per-job tables in different
// orders on different goroutines are the deadlocks PR 6's review hunted
// by hand.
type LockHierarchy struct{ a *concAnalysis }

func (*LockHierarchy) Name() string { return "lock-hierarchy" }
func (*LockHierarchy) Doc() string {
	return "mutexes must be acquired in the order declared in lint/lockorder.conf, transitively through calls"
}

// CheckProgram implements ProgramRule.
func (r *LockHierarchy) CheckProgram(pkgs []*Package, report Reporter) {
	r.a.ensure(pkgs)
	if r.a.loadErr != nil {
		report(token.NoPos, "loading lock order: %v", r.a.loadErr)
	}
	for _, f := range r.a.hier {
		report(f.pos, "%s", f.msg)
	}
}

// BlockingUnderLock forbids blocking while a mutex is held, at two
// levels. Any sync.Mutex/RWMutex held across a channel send or receive,
// a select without default, a range over a channel or a
// sync.WaitGroup.Wait in the same body is flagged: the goroutine that
// would unblock it may be stuck on the same mutex. A mutex
// lint/lockorder.conf declares is also checked against network and
// stream I/O, time.Sleep and foreign Cond waits, transitively through
// calls. Cond.Wait on its own locker and close are never flagged.
// Deliberate exceptions (the fleet's attach-serialized sends) carry
// audited //lint:ignore directives instead of being invisible.
type BlockingUnderLock struct{ a *concAnalysis }

func (*BlockingUnderLock) Name() string { return "blocking-under-lock" }
func (*BlockingUnderLock) Doc() string {
	return "no channel op or WaitGroup.Wait under any mutex; no may-block call under a lint/lockorder.conf mutex, transitively"
}

// CheckProgram implements ProgramRule.
func (r *BlockingUnderLock) CheckProgram(pkgs []*Package, report Reporter) {
	r.a.ensure(pkgs)
	for _, f := range r.a.block {
		report(f.pos, "%s", f.msg)
	}
}

// ensure builds the engine and runs the scan once per program; the two
// rules run back to back over the same package slice, so identity of
// the slice is the cache key.
func (a *concAnalysis) ensure(pkgs []*Package) {
	if a.sameProgram(pkgs) {
		return
	}
	a.last = pkgs
	a.hier, a.block = nil, nil
	if a.autoConf {
		a.ord, a.loadErr = a.locateConf(pkgs)
	}
	eng := newConcEngine(pkgs)
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				default:
					return true
				}
				if body != nil {
					s := &classScan{a: a, p: p, eng: eng}
					s.stmts(body.List, heldSet{})
				}
				return true // nested literals get their own scan
			})
		}
	}
}

func (a *concAnalysis) sameProgram(pkgs []*Package) bool {
	if a.last == nil || len(a.last) != len(pkgs) {
		return false
	}
	for i := range pkgs {
		if a.last[i] != pkgs[i] {
			return false
		}
	}
	return true
}

// locateConf finds <module root>/lint/lockorder.conf relative to the
// first analyzed file. Absence is not an error: the hierarchy is
// opt-in, and without it no mutex is declared.
func (a *concAnalysis) locateConf(pkgs []*Package) (*LockOrder, error) {
	a.loaded = true
	for _, p := range pkgs {
		if len(p.Files) == 0 {
			continue
		}
		dir := filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)
		abs, err := filepath.Abs(dir)
		if err != nil {
			continue
		}
		root, _, err := findModule(abs)
		if err != nil {
			continue
		}
		path := filepath.Join(root, "lint", "lockorder.conf")
		if _, err := os.Stat(path); err != nil {
			return nil, nil
		}
		return LoadLockOrder(path)
	}
	return nil, nil
}

// heldLock is one mutex held at a point of the scan, with its Lock
// position. A mutex the conf declares is keyed by its class
// ("core.Driver.mu") and gets every check; any other is keyed by its
// receiver expression ("s.mu"), so two instances of one type are two
// locks, and is checked only against channel operations and
// WaitGroup.Wait.
type heldLock struct {
	pos      token.Pos
	declared bool
}

type heldSet map[string]heldLock

func (s heldSet) clone() heldSet {
	c := make(heldSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// classScan is the lexical walk that threads the held-mutex state
// through one function body, checking every lock acquisition, blocking
// operation and call site. Branch handling merges optimistically — a
// lock is considered released after a branch that unlocks it — but the
// merge is return-aware: a branch ending in return (the "unlock and
// bail" guard idiom) does not launder the held state of the path that
// falls through. A nil heldSet marks a path that cannot fall through.
type classScan struct {
	a   *concAnalysis
	p   *Package
	eng *concEngine
}

// mergeBranches joins the fall-through states of alternative paths:
// terminated paths (nil) drop out, surviving paths intersect.
func mergeBranches(x, y heldSet) heldSet {
	if x == nil {
		return y
	}
	if y == nil {
		return x
	}
	out := heldSet{}
	for k, v := range x {
		if _, ok := y[k]; ok {
			out[k] = v
		}
	}
	return out
}

func (s *classScan) stmts(list []ast.Stmt, held heldSet) heldSet {
	for _, st := range list {
		if held == nil {
			return nil // unreachable after a terminating statement
		}
		held = s.stmt(st, held)
	}
	return held
}

func (s *classScan) stmt(st ast.Stmt, held heldSet) heldSet {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if kind, c := classifyLockOp(s.p, call); kind != opNone {
				key, declared := string(c), s.a.ord.Tier(c) > 0
				if !declared {
					key = exprString(s.p.Fset, receiverOf(call))
				}
				if kind == opUnlock {
					delete(held, key)
					return held
				}
				if declared {
					s.checkAcquire(call.Pos(), c, held, "")
				}
				held[key] = heldLock{call.Pos(), declared}
				return held
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := s.p.Info.Uses[id].(*types.Builtin); isBuiltin {
					s.expr(st.X, held)
					return nil
				}
			}
		}
		s.expr(st.X, held)
	case *ast.SendStmt:
		s.flagBlock(st.Arrow, "send on "+exprString(s.p.Fset, st.Chan), held, true, "")
		s.expr(st.Chan, held)
		s.expr(st.Value, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e, held)
		}
		for _, e := range st.Lhs {
			s.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e, held)
		}
		return nil
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held to the end of the
		// body; other deferred calls are checked against the state at
		// the defer site (lexical approximation, like the rest of the
		// scan).
		if kind, _ := classifyLockOp(s.p, st.Call); kind == opNone {
			s.call(st.Call, held)
			for _, e := range st.Call.Args {
				s.expr(e, held)
			}
		}
	case *ast.GoStmt:
		// The goroutine runs without our locks.
		for _, e := range st.Call.Args {
			s.expr(e, held)
		}
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt, held)
	case *ast.BlockStmt:
		return s.stmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
			if held == nil {
				return nil
			}
		}
		s.expr(st.Cond, held)
		after := s.stmts(st.Body.List, held.clone())
		alt := held
		if st.Else != nil {
			alt = s.stmt(st.Else, held.clone())
		}
		return mergeBranches(after, alt)
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.expr(st.Cond, held)
		}
		s.stmts(st.Body.List, held.clone())
		return held
	case *ast.RangeStmt:
		s.expr(st.X, held)
		if isChanType(s.p.Info.Types[st.X].Type) {
			s.flagBlock(st.For, "range over channel "+exprString(s.p.Fset, st.X), held, true, "")
		}
		s.stmts(st.Body.List, held.clone())
		return held
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
			if held == nil {
				return nil
			}
		}
		if st.Tag != nil {
			s.expr(st.Tag, held)
		}
		return s.caseBodies(st.Body, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
			if held == nil {
				return nil
			}
		}
		return s.caseBodies(st.Body, held)
	case *ast.SelectStmt:
		if !selectHasDefault(st) {
			s.flagBlock(st.Select, "select", held, true, "")
		}
		var after heldSet
		for _, cl := range st.Body.List {
			after = mergeBranches(after, s.stmts(cl.(*ast.CommClause).Body, held.clone()))
		}
		if len(st.Body.List) == 0 {
			after = held
		}
		return after
	}
	return held
}

// caseBodies merges the fall-through states of a switch's cases. When
// no default exists the switch itself may fall through with the entry
// state; case bodies ending in return drop out of the merge.
func (s *classScan) caseBodies(body *ast.BlockStmt, held heldSet) heldSet {
	var after heldSet
	hasDefault := false
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		after = mergeBranches(after, s.stmts(cc.Body, held.clone()))
	}
	if !hasDefault {
		after = mergeBranches(after, held)
	}
	return after
}

// expr scans an expression for blocking operations and checked calls.
// Function literals are skipped: they are scanned as their own roots.
func (s *classScan) expr(e ast.Expr, held heldSet) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.flagBlock(n.OpPos, "receive from "+exprString(s.p.Fset, n.X), held, true, "")
			}
		case *ast.CallExpr:
			if kind, _ := classifyLockOp(s.p, n); kind != opNone {
				return true
			}
			s.call(n, held)
		}
		return true
	})
}

// call checks one call site: intrinsic blockers and cond waits first,
// then, for declared mutexes, the callee's transitive acquire/block
// summaries.
func (s *classScan) call(call *ast.CallExpr, held heldSet) {
	fn := fnKey(calleeFunc(s.p.Info, call))
	if isMethodOf(fn, "sync", "Cond", "Wait") {
		// Wait releases the cond's own locker while blocked — that is
		// the dispatcher idiom — but any other held hierarchy mutex
		// stays held across the wait.
		locker := s.eng.condLocker[classOfExpr(s.p, receiverOf(call))]
		s.flagBlock(call.Pos(), "sync.Cond.Wait on "+exprString(s.p.Fset, receiverOf(call)), held, false, locker)
		return
	}
	if what := intrinsicBlock(s.p, call); what != "" {
		s.flagBlock(call.Pos(), what, held, isMethodOf(fn, "sync", "WaitGroup", "Wait"), "")
		return
	}
	if fn == nil || len(held) == 0 {
		return
	}
	g := s.eng.funcs[fn]
	if g == nil {
		return
	}
	for c := range g.sumAcq {
		if s.a.ord.Tier(c) > 0 {
			s.checkAcquire(call.Pos(), c, held, fmt.Sprintf(" (call to %s%s)", fn.Name(), s.eng.acqChain(fn, c, 0)))
		}
	}
	if g.sumBlock {
		s.flagBlock(call.Pos(), fmt.Sprintf("call to %s may block (%s)", fn.Name(), s.eng.blockChain(fn, 0)), held, false, "")
	}
}

// checkAcquire reports an acquisition of declared class c — direct, or
// through a call when via names the path — that inverts the declared
// order relative to any held declared class.
func (s *classScan) checkAcquire(pos token.Pos, c lockClass, held heldSet, via string) {
	for h, l := range held {
		if l.declared {
			s.checkOrder(pos, c, lockClass(h), l.pos, via)
		}
	}
}

func (s *classScan) checkOrder(pos token.Pos, acq, heldC lockClass, lockPos token.Pos, via string) {
	ta, th := s.a.ord.Tier(acq), s.a.ord.Tier(heldC)
	switch {
	case acq == heldC:
		s.a.hier = append(s.a.hier, rawFinding{pos, fmt.Sprintf(
			"acquiring %s%s while it is already held (lock at line %d): self-deadlock",
			acq, via, s.line(lockPos))})
	case ta < th:
		s.a.hier = append(s.a.hier, rawFinding{pos, fmt.Sprintf(
			"acquiring %s (level %d)%s while holding %s (level %d, lock at line %d) inverts the order declared in %s",
			acq, ta, via, heldC, th, s.line(lockPos), s.a.ord.Path)})
	case ta == th:
		s.a.hier = append(s.a.hier, rawFinding{pos, fmt.Sprintf(
			"acquiring %s%s while holding %s (lock at line %d): both sit at level %d of %s, where no nesting order is declared",
			acq, via, heldC, s.line(lockPos), ta, s.a.ord.Path)})
	}
}

// flagBlock reports one blocking operation against every held declared
// mutex except exempt (a cond's own locker), and against the undeclared
// ones too when undeclared is set (channel operations, WaitGroup.Wait).
func (s *classScan) flagBlock(pos token.Pos, what string, held heldSet, undeclared bool, exempt lockClass) {
	for h, l := range held {
		if !l.declared && !undeclared || h == string(exempt) {
			continue
		}
		s.a.block = append(s.a.block, rawFinding{pos, fmt.Sprintf(
			"%s while %s is held (lock at line %d): unlock first, or audit with //lint:ignore blocking-under-lock <reason>",
			what, h, s.line(l.pos))})
	}
}

func (s *classScan) line(pos token.Pos) int {
	return s.p.Fset.Position(pos).Line
}
