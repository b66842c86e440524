// Package pageref checks the resource lifetime of refcounted pages
// (§2.3: pages pinned on the pipelined disk→cache→network path must be
// released exactly once). Every acquisition of a page pin —
// queue.PagePool.Get/TryGet/TryReuse, cache.Cache.Alloc/Reuse/Lookup, or an explicit
// PageRef.Retain — must reach a Release or an explicit hand-off on
// every path out of the acquiring function.
//
// A hand-off is any construct that visibly transfers ownership: the
// ref returned from the function, passed as a call argument, sent on a
// channel, stored through an assignment or composite literal, or
// captured by a function literal (the closure inherits the pin).
// Within one function the analysis is a lexical path scan: after each
// acquisition it looks for return statements with no dominating
// release/hand-off, skipping returns that are guarded by a `ref ==
// nil` check or that sit in a branch arm exclusive with the
// acquisition. A release inside one branch arm is conservatively
// assumed to cover later returns, so the check favors false negatives:
// it is a tripwire for the common leak shapes (early return, error
// path, forgotten defer), not a proof.
//
// False positives — e.g. ownership recorded in a side table the
// analysis cannot see — are suppressed with //nolint:pageref plus a
// justification comment.
package pageref

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"calliope/internal/analysis/framework"
)

// Analyzer is the pageref check.
var Analyzer = &framework.Analyzer{
	Name: "pageref",
	Doc:  "detect page pins (PagePool.Get, Cache.Alloc/Reuse/Lookup, PageRef.Retain) that miss a Release or hand-off on some path",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeUnit(pass, fd.Body)
			// Every function literal is its own analysis unit: an
			// acquire inside `go func(){...}` must be balanced inside
			// that goroutine.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeUnit(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// acquire is one point where the function takes ownership of a pin.
type acquire struct {
	key  string // refKey of the variable holding the ref
	what string // human name of the acquiring call
	pos  token.Pos
	path []ast.Node
}

// event is a sink (release or hand-off) or a return statement.
type event struct {
	key  string
	pos  token.Pos
	path []ast.Node
}

type unitScan struct {
	pass     *framework.Pass
	acquires []acquire
	sinks    []event
	returns  []event
}

// analyzeUnit scans one function body. Events directly in the body
// (depth 0) are acquires/sinks/returns of this unit; inside nested
// function literals (depth > 0) only mentions count, as hand-offs.
func analyzeUnit(pass *framework.Pass, body *ast.BlockStmt) {
	u := &unitScan{pass: pass}
	var stack []ast.Node
	depth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				depth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			depth++
		}
		u.visit(n, stack, depth)
		return true
	})
	u.finish()
}

func (u *unitScan) visit(n ast.Node, stack []ast.Node, depth int) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if depth == 0 {
			u.assign(n, stack)
		}
	case *ast.ExprStmt:
		if depth == 0 {
			u.exprStmt(n, stack)
		}
	case *ast.ReturnStmt:
		if depth == 0 {
			u.returns = append(u.returns, event{pos: n.Pos(), path: clone(stack)})
			for _, res := range n.Results {
				u.sinkIfRef(res, stack)
			}
		}
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && u.recvIs(sel, "PageRef", "queue") {
			u.sinkExpr(sel.X, stack)
		}
		if depth == 0 {
			for _, arg := range n.Args {
				u.sinkIfRef(arg, stack)
			}
		}
		// iosched.Scheduler.Submit hands the destination buffer to the
		// scheduler: a ref mentioned anywhere in the argument — even
		// buried as `page.Bytes()` inside a Request literal — is pinned
		// by the submitter until completion, so treat every mention as
		// a hand-off, not just direct *PageRef-typed arguments.
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && depth == 0 &&
			sel.Sel.Name == "Submit" && u.recvIs(sel, "Scheduler", "iosched") {
			for _, arg := range n.Args {
				ast.Inspect(arg, func(sub ast.Node) bool {
					if e, ok := sub.(ast.Expr); ok {
						u.sinkIfRef(e, stack)
					}
					return true
				})
			}
		}
	case *ast.CompositeLit:
		if depth == 0 {
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				u.sinkIfRef(elt, stack)
			}
		}
	case *ast.SendStmt:
		if depth == 0 {
			u.sinkIfRef(n.Value, stack)
		}
	case *ast.Ident, *ast.SelectorExpr:
		// A mention inside a nested function literal hands the pin to
		// the closure (goroutine capture, deferred release).
		if depth > 0 {
			u.sinkIfRef(n.(ast.Expr), stack)
		}
	}
}

// assign handles `x := pool.Get(...)` acquisitions and `y = x`
// hand-off stores at depth 0.
func (u *unitScan) assign(n *ast.AssignStmt, stack []ast.Node) {
	for i, rhs := range n.Rhs {
		if call, ok := unparen(rhs).(*ast.CallExpr); ok {
			if what := u.acquireName(call); what != "" {
				var lhs ast.Expr
				switch {
				case len(n.Lhs) == len(n.Rhs):
					lhs = n.Lhs[i]
				case len(n.Lhs) == 1:
					lhs = n.Lhs[0]
				}
				if lhs == nil {
					continue
				}
				id, isIdent := unparen(lhs).(*ast.Ident)
				if isIdent && id.Name == "_" {
					u.pass.Reportf(call.Pos(), "result of %s is dropped: the pinned page can never be released (assign the *PageRef and Release it, or hand it off)", what)
					continue
				}
				// Assigning straight into a field or element stores
				// the pin in a structure — a hand-off, not a local
				// ownership we can track.
				if !isIdent {
					continue
				}
				if key, ok := refKey(u.pass.TypesInfo, lhs); ok {
					u.acquires = append(u.acquires, acquire{key: key, what: what, pos: call.Pos(), path: clone(stack)})
				}
				continue
			}
		}
		// Storing a ref into another variable/field is a hand-off.
		if len(n.Lhs) == len(n.Rhs) {
			if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				continue
			}
		}
		u.sinkIfRef(rhs, stack)
	}
}

// exprStmt handles dropped acquire results and Retain pins.
func (u *unitScan) exprStmt(n *ast.ExprStmt, stack []ast.Node) {
	call, ok := unparen(n.X).(*ast.CallExpr)
	if !ok {
		return
	}
	if what := u.acquireName(call); what != "" {
		u.pass.Reportf(call.Pos(), "result of %s is dropped: the pinned page can never be released (assign the *PageRef and Release it, or hand it off)", what)
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Retain" || !u.recvIs(sel, "PageRef", "queue") {
		return
	}
	if key, ok := refKey(u.pass.TypesInfo, sel.X); ok {
		u.acquires = append(u.acquires, acquire{key: key, what: "PageRef.Retain", pos: call.Pos(), path: clone(stack)})
	}
}

// acquireName classifies call as a pin-acquiring method, or "".
func (u *unitScan) acquireName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Get", "TryGet", "TryReuse":
		if u.recvIs(sel, "PagePool", "queue") {
			return "PagePool." + sel.Sel.Name
		}
	case "Alloc", "Reuse", "Lookup":
		if u.recvIs(sel, "Cache", "cache") {
			return "Cache." + sel.Sel.Name
		}
	}
	return ""
}

// recvIs reports whether sel is a method selection on (a pointer to)
// the named type from the named package.
func (u *unitScan) recvIs(sel *ast.SelectorExpr, name, pkg string) bool {
	selection := u.pass.TypesInfo.Selections[sel]
	return selection != nil && isNamed(selection.Recv(), name, pkg)
}

// sinkIfRef records e as a hand-off sink when it is a trackable
// *queue.PageRef expression.
func (u *unitScan) sinkIfRef(e ast.Expr, stack []ast.Node) {
	e = unparen(e)
	tv, ok := u.pass.TypesInfo.Types[e]
	if !ok || !isNamed(tv.Type, "PageRef", "queue") {
		return
	}
	u.sinkExpr(e, stack)
}

func (u *unitScan) sinkExpr(e ast.Expr, stack []ast.Node) {
	if key, ok := refKey(u.pass.TypesInfo, e); ok {
		u.sinks = append(u.sinks, event{key: key, pos: e.Pos(), path: clone(stack)})
	}
}

// finish matches each acquire against the sinks and returns recorded
// in this unit and reports the unbalanced paths.
func (u *unitScan) finish() {
	for _, a := range u.acquires {
		var after []event
		for _, s := range u.sinks {
			if s.key == a.key && s.pos > a.pos {
				after = append(after, s)
			}
		}
		if len(after) == 0 {
			u.pass.Reportf(a.pos, "page from %s is never released or handed off (call Release, return it, send it, or store it; //nolint:pageref with a justification if ownership provably escapes)", a.what)
			continue
		}
		aLine := u.pass.Fset.Position(a.pos).Line
		for _, r := range u.returns {
			if r.pos <= a.pos || differentArms(a.path, r.path) {
				continue
			}
			ret := r.path[len(r.path)-1].(*ast.ReturnStmt)
			if mentions(after, ret) || nilGuarded(r.path, a.key, u.pass.TypesInfo) {
				continue
			}
			dominated := false
			for _, s := range after {
				if s.pos < r.pos && !differentArms(s.path, r.path) {
					dominated = true
					break
				}
			}
			if !dominated {
				u.pass.Reportf(r.pos, "page from %s (line %d) is not released or handed off on this return path", a.what, aLine)
			}
		}
	}
}

// mentions reports whether any sink lies inside the return statement
// itself (the ref is part of the returned values).
func mentions(sinks []event, ret *ast.ReturnStmt) bool {
	for _, s := range sinks {
		if s.pos >= ret.Pos() && s.pos < ret.End() {
			return true
		}
	}
	return false
}

// differentArms reports whether the two paths diverge into mutually
// exclusive branch arms (then vs else, or different case clauses), so
// one can never flow into the other.
func differentArms(p1, p2 []ast.Node) bool {
	i := 0
	for i < len(p1) && i < len(p2) && p1[i] == p2[i] {
		i++
	}
	if i == 0 || i >= len(p1) || i >= len(p2) {
		return false
	}
	a, b := p1[i], p2[i]
	switch lca := p1[i-1].(type) {
	case *ast.IfStmt:
		aBody, bBody := a == lca.Body, b == lca.Body
		aElse := lca.Else != nil && a == lca.Else
		bElse := lca.Else != nil && b == lca.Else
		return (aBody && bElse) || (aElse && bBody)
	case *ast.BlockStmt:
		// Switch/select bodies hold their clauses directly.
		return isClause(a) && isClause(b)
	}
	return false
}

func isClause(n ast.Node) bool {
	switch n.(type) {
	case *ast.CaseClause, *ast.CommClause:
		return true
	}
	return false
}

// nilGuarded reports whether the return sits in a branch arm whose
// condition implies the acquired ref is nil (nothing to release).
func nilGuarded(path []ast.Node, key string, info *types.Info) bool {
	for i := 0; i+1 < len(path); i++ {
		ifs, ok := path[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		arm := path[i+1]
		if arm == ifs.Body && condImpliesNil(ifs.Cond, key, true, info) {
			return true
		}
		if ifs.Else != nil && arm == ifs.Else && condImpliesNil(ifs.Cond, key, false, info) {
			return true
		}
	}
	return false
}

// condImpliesNil reports whether cond evaluating to val implies the
// ref named key is nil.
func condImpliesNil(cond ast.Expr, key string, val bool, info *types.Info) bool {
	switch c := unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if val {
				return condImpliesNil(c.X, key, true, info) || condImpliesNil(c.Y, key, true, info)
			}
		case token.LOR:
			if !val {
				return condImpliesNil(c.X, key, false, info) || condImpliesNil(c.Y, key, false, info)
			}
		case token.EQL:
			if val {
				return nilCompare(c, key, info)
			}
		case token.NEQ:
			if !val {
				return nilCompare(c, key, info)
			}
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return condImpliesNil(c.X, key, !val, info)
		}
	}
	return false
}

// nilCompare reports whether b compares the ref named key against nil.
func nilCompare(b *ast.BinaryExpr, key string, info *types.Info) bool {
	for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		if id, ok := unparen(pair[1]).(*ast.Ident); ok && id.Name == "nil" {
			if k, ok := refKey(info, pair[0]); ok && k == key {
				return true
			}
		}
	}
	return false
}

func clone(stack []ast.Node) []ast.Node {
	return append([]ast.Node(nil), stack...)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isNamed reports whether t is (a pointer to) the named type from a
// package whose path ends in pkg.
func isNamed(t types.Type, name, pkg string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// refKey produces a stable key for a variable or field-chain
// expression, so `p`, `s.page` and `(s.page)` alias correctly.
func refKey(info *types.Info, e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("obj@%d", obj.Pos()), true
	case *ast.ParenExpr:
		return refKey(info, x.X)
	case *ast.SelectorExpr:
		base, ok := refKey(info, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.StarExpr:
		return refKey(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return refKey(info, x.X)
		}
	}
	return "", false
}
