package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxSelect enforces the cancellation invariant of the runtime loops:
// inside the scheduling packages, a blocking channel operation in a
// function that has a context.Context in scope must sit in a select with
// a ctx.Done() case (or a default case, which makes it non-blocking).
//
// PR 1 threaded context cancellation through core.RunContext; the master
// and job-service loops now unwind through ctx. A naked send or receive
// in one of those functions is a hang waiting to happen: cancellation
// closes other channels, not this one.
type CtxSelect struct {
	// Scopes are import-path suffixes the rule applies to. The default
	// set is the packages whose loops carry the runtime's cancellation
	// protocol.
	Scopes []string
}

// NewCtxSelect returns the rule with the default package scope.
func NewCtxSelect() *CtxSelect {
	return &CtxSelect{Scopes: []string{
		"internal/core",
		"internal/sched",
		"internal/server",
		"internal/comm",
		"internal/fleet",
	}}
}

func (*CtxSelect) Name() string { return "ctx-select" }
func (*CtxSelect) Doc() string {
	return "blocking channel operations with a ctx in scope must select on ctx.Done()"
}

func (r *CtxSelect) applies(path string) bool {
	for _, s := range r.Scopes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// CheckPackage implements PackageRule.
func (r *CtxSelect) CheckPackage(p *Package, report Reporter) {
	if !r.applies(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			r.checkFunc(p, fd, report)
		}
	}
}

func (r *CtxSelect) checkFunc(p *Package, fd *ast.FuncDecl, report Reporter) {
	done := doneChannels(p.Info, fd)
	if ctxLocal := declaresCtxLocal(p.Info, fd); !ctxLocal && !funcTypeHasCtx(p.Info, fd.Type) {
		// Fast path: no ctx parameter and no ctx local anywhere in the
		// declaration — unless a nested function literal introduces its
		// own ctx parameter, nothing here can violate the rule.
		if !anyLitHasCtx(p.Info, fd) {
			return
		}
	}

	reported := map[*ast.SelectStmt]bool{}
	inspectStack(fd, func(n ast.Node, stack []ast.Node) bool {
		switch op := n.(type) {
		case *ast.SendStmt:
			if !ctxInScope(p.Info, fd, stack) {
				return true
			}
			if sel, inComm := enclosingSelect(op, stack); inComm {
				r.checkSelect(p, sel, done, reported, report)
			} else {
				report(op.Arrow, "blocking send on %s with ctx in scope must be in a select with a ctx.Done() case",
					exprString(p.Fset, op.Chan))
			}
		case *ast.UnaryExpr:
			if op.Op.String() != "<-" {
				return true
			}
			if !ctxInScope(p.Info, fd, stack) {
				return true
			}
			if isCtxDoneExpr(p.Info, op.X, done) {
				// Receiving from ctx.Done() itself is cancellation-aware
				// by construction.
				return true
			}
			if sel, inComm := enclosingSelect(op, stack); inComm {
				r.checkSelect(p, sel, done, reported, report)
			} else {
				report(op.OpPos, "blocking receive from %s with ctx in scope must be in a select with a ctx.Done() case",
					exprString(p.Fset, op.X))
			}
		case *ast.RangeStmt:
			if op.X == nil || !isChanType(p.Info.Types[op.X].Type) {
				return true
			}
			if !ctxInScope(p.Info, fd, stack) {
				return true
			}
			report(op.For, "range over channel %s cannot observe ctx cancellation; receive in a select with a ctx.Done() case",
				exprString(p.Fset, op.X))
		}
		return true
	})
}

// checkSelect validates one select statement whose comm clauses contain
// channel operations: it must be non-blocking (default case) or carry a
// ctx.Done() case. Reported once per select.
func (r *CtxSelect) checkSelect(p *Package, sel *ast.SelectStmt, done map[types.Object]bool, reported map[*ast.SelectStmt]bool, report Reporter) {
	if reported[sel] {
		return
	}
	hasDefault := false
	hasDone := false
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		if recv := commRecvOperand(cc.Comm); recv != nil && isCtxDoneExpr(p.Info, recv, done) {
			hasDone = true
		}
	}
	if !hasDefault && !hasDone {
		reported[sel] = true
		report(sel.Select, "select blocks with ctx in scope but has no ctx.Done() or default case")
	}
}

// enclosingSelect reports whether op sits in the comm position of a
// select clause, returning that select.
func enclosingSelect(op ast.Node, stack []ast.Node) (*ast.SelectStmt, bool) {
	for i := len(stack) - 1; i >= 2; i-- {
		cc, ok := stack[i].(*ast.CommClause)
		if !ok {
			continue
		}
		child := op
		if i+1 < len(stack) {
			child = stack[i+1]
		}
		// The walk order is SelectStmt -> BlockStmt -> CommClause.
		sel, ok := stack[i-2].(*ast.SelectStmt)
		if !ok {
			return nil, false
		}
		if stmt, ok := child.(ast.Stmt); ok && stmt == cc.Comm {
			return sel, true
		}
		return nil, false
	}
	return nil, false
}

// commRecvOperand extracts the received-from expression of a select comm
// statement ("case <-ch:", "case v := <-ch:"), or nil for sends.
func commRecvOperand(comm ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
		return u.X
	}
	return nil
}

// isCtxDoneExpr reports whether e is ctx.Done() for a context-typed ctx,
// or a local variable previously assigned from one.
func isCtxDoneExpr(info *types.Info, e ast.Expr, done map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return false
		}
		return isContextType(info.Types[sel.X].Type)
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return done[obj]
		}
	}
	return false
}

// doneChannels collects local variables assigned from ctx.Done() inside
// fd (e.g. "cancel := ctx.Done()").
func doneChannels(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	done := map[types.Object]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isCtxDoneExpr(info, rhs, nil) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				done[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				done[obj] = true
			}
		}
		return true
	})
	return done
}

// funcTypeHasCtx reports whether the function type has a
// context.Context parameter.
func funcTypeHasCtx(info *types.Info, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		if isContextType(info.Types[fld.Type].Type) {
			return true
		}
	}
	return false
}

// declaresCtxLocal reports whether any local variable of type
// context.Context is declared inside fd.
func declaresCtxLocal(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Defs[id]; obj != nil && isContextType(obj.Type()) {
			found = true
		}
		return true
	})
	return found
}

func anyLitHasCtx(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && funcTypeHasCtx(info, lit.Type) {
			found = true
		}
		return true
	})
	return found
}

// ctxInScope reports whether the enclosing function chain of the node
// whose ancestor stack is given makes a caller context available: the
// innermost or any enclosing function (within this declaration) has a
// context.Context parameter, or the declaration binds a context local.
func ctxInScope(info *types.Info, fd *ast.FuncDecl, stack []ast.Node) bool {
	if funcTypeHasCtx(info, fd.Type) || declaresCtxLocal(info, fd) {
		return true
	}
	for _, n := range stack {
		if lit, ok := n.(*ast.FuncLit); ok && funcTypeHasCtx(info, lit.Type) {
			return true
		}
	}
	return false
}
