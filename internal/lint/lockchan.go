package lint

import (
	"go/ast"
	"go/token"
)

// LockAcrossChannel flags a sync.Mutex/RWMutex held across a blocking
// operation: a channel send or receive, a blocking select, a range over
// a channel, or a sync.WaitGroup.Wait. In the master/slave loops every
// mutex is a short critical section around shared tables (register
// table, known-set, job map); blocking under one of them stalls every
// other worker touching the table and, when the unblocking party needs
// the same mutex, deadlocks the run.
//
// sync.Cond.Wait is deliberately exempt: it releases its locker while
// waiting, which is the dispatcher's (sched.Queue, core.master) correct
// idiom. close() is exempt too — it never blocks.
//
// The analysis is a conservative lexical walk, not a full CFG: a lock is
// considered released after a statement (if/switch branch) in which any
// path unlocks it, so the rule errs toward silence rather than noise.
type LockAcrossChannel struct{}

// NewLockAcrossChannel returns the rule.
func NewLockAcrossChannel() *LockAcrossChannel { return &LockAcrossChannel{} }

func (*LockAcrossChannel) Name() string { return "lock-across-channel" }
func (*LockAcrossChannel) Doc() string {
	return "a held sync.Mutex/RWMutex across a channel op or WaitGroup.Wait is a deadlock hazard"
}

// CheckPackage implements PackageRule.
func (r *LockAcrossChannel) CheckPackage(p *Package, report Reporter) {
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
				s := &lockScan{p: p, report: report}
				s.stmts(body.List, lockSet{})
			}
			return true // literals nested inside get their own scan
		})
	}
}

// lockSet maps a lock's receiver expression ("m.mu") to the position of
// the Lock call that acquired it.
type lockSet map[string]token.Pos

func (l lockSet) clone() lockSet {
	c := make(lockSet, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// intersect keeps only locks held in both states (optimistic merge after
// branching control flow).
func intersect(a, b lockSet) lockSet {
	out := lockSet{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

type lockScan struct {
	p      *Package
	report Reporter
}

// stmts scans a statement list, threading the held-lock state through,
// and returns the state after the list.
func (s *lockScan) stmts(list []ast.Stmt, held lockSet) lockSet {
	for _, st := range list {
		held = s.stmt(st, held)
	}
	return held
}

func (s *lockScan) stmt(st ast.Stmt, held lockSet) lockSet {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch kind, key, pos := s.lockOp(call); kind {
			case opLock:
				held[key] = pos
				return held
			case opUnlock:
				delete(held, key)
				return held
			}
		}
		s.expr(st.X, held)
	case *ast.SendStmt:
		s.flag(st.Arrow, "send on "+exprString(s.p.Fset, st.Chan), held)
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
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held for the remainder of
		// the body — the hazard we are looking for — so it does not
		// clear the state. Other deferred calls only have their
		// arguments evaluated now.
		if kind, _, _ := s.lockOp(st.Call); kind == opNone {
			for _, e := range st.Call.Args {
				s.expr(e, held)
			}
		}
	case *ast.GoStmt:
		// The goroutine body runs without our locks; only the call
		// arguments are evaluated here.
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
		}
		s.expr(st.Cond, held)
		after := s.stmts(st.Body.List, held.clone())
		alt := held
		if st.Else != nil {
			alt = s.stmt(st.Else, held.clone())
		}
		return intersect(after, alt)
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.expr(st.Cond, held)
		}
		// The body is scanned for hazards with the current state; lock
		// state changes inside a loop body are not propagated past it
		// (a Lock/Unlock pair per iteration leaves the state unchanged).
		s.stmts(st.Body.List, held.clone())
		return held
	case *ast.RangeStmt:
		s.expr(st.X, held)
		if isChanType(s.p.Info.Types[st.X].Type) {
			s.flag(st.For, "range over channel "+exprString(s.p.Fset, st.X), held)
		}
		s.stmts(st.Body.List, held.clone())
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return s.switchStmt(st, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range st.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.flag(st.Select, "select", held)
		}
		for _, cl := range st.Body.List {
			s.stmts(cl.(*ast.CommClause).Body, held.clone())
		}
		return held
	}
	return held
}

// switchStmt handles switch and type-switch: each case body is scanned
// with a copy of the state; afterwards a lock is considered held only if
// every case kept it held.
func (s *lockScan) switchStmt(st ast.Stmt, held lockSet) lockSet {
	var body *ast.BlockStmt
	switch st := st.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.expr(st.Tag, held)
		}
		body = st.Body
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		body = st.Body
	}
	after := held
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		after = intersect(after, s.stmts(cc.Body, held.clone()))
	}
	return after
}

// expr scans an expression for blocking operations performed while locks
// are held. Function literals are skipped: they are scanned separately
// with an empty state.
func (s *lockScan) expr(e ast.Expr, held lockSet) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.flag(n.OpPos, "receive from "+exprString(s.p.Fset, n.X), held)
			}
		case *ast.CallExpr:
			fn := calleeFunc(s.p.Info, n)
			if isMethodOf(fn, "sync", "WaitGroup", "Wait") {
				s.flag(n.Pos(), "sync.WaitGroup.Wait", held)
			}
		}
		return true
	})
}

func (s *lockScan) flag(pos token.Pos, what string, held lockSet) {
	for key, lockPos := range held {
		s.report(pos, "blocking %s while %s is held (Lock at line %d): unlock before blocking, or the goroutine that would unblock this may be stuck on the same mutex",
			what, key, s.p.Fset.Position(lockPos).Line)
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex (including ones promoted through
// embedding), returning the receiver expression as the lock's identity.
func (s *lockScan) lockOp(call *ast.CallExpr) (lockOpKind, string, token.Pos) {
	fn := calleeFunc(s.p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, "", token.NoPos
	}
	if !isMethodOf(fn, "sync", "Mutex", fn.Name()) && !isMethodOf(fn, "sync", "RWMutex", fn.Name()) {
		return opNone, "", token.NoPos
	}
	recv := receiverOf(call)
	if recv == nil {
		return opNone, "", token.NoPos
	}
	key := exprString(s.p.Fset, recv)
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock, key, call.Pos()
	case "Unlock", "RUnlock":
		return opUnlock, key, call.Pos()
	}
	return opNone, "", token.NoPos
}
