// Package errdropped flags discarded error returns from Calliope's
// control-plane packages (internal/wire, internal/protocol).
//
// The control plane is RPC over TCP (§2): a swallowed send or decode
// error means a request that will never be answered — the client hangs
// in Call until its timeout, or a stream silently never starts. Every
// error from these packages must be handled, returned, or explicitly
// waived with //nolint:errcheck (the conventional name) or
// //nolint:errdropped on the call's line.
//
// Flagged forms: a call used as a bare statement, a call launched via
// go/defer (whose error is unobservable), an assignment or var
// declaration binding an error result to the blank identifier, and a
// go/defer of a function literal that itself returns an error — the
// classic teardown shape `go func() { ... }()` wrapping control-plane
// closes loses the literal's error at the statement boundary.
package errdropped

import (
	"go/ast"
	"go/types"
	"strings"

	"calliope/internal/analysis/framework"
)

// Analyzer is the errdropped check.
var Analyzer = &framework.Analyzer{
	Name:     "errdropped",
	Doc:      "flag discarded error returns from internal/wire and internal/protocol",
	Suppress: []string{"errcheck"},
	Run:      run,
}

// targetPkgs are the package-path suffixes whose error returns must
// not be dropped.
var targetPkgs = []string{"internal/wire", "internal/protocol"}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(pass, call, "discarded")
				}
			case *ast.GoStmt:
				check(pass, n.Call, "unobservable in a go statement")
				checkFuncLit(pass, n.Call, "goroutine")
			case *ast.DeferStmt:
				check(pass, n.Call, "unobservable in a deferred call")
				checkFuncLit(pass, n.Call, "deferred call")
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.ValueSpec:
				checkValueSpec(pass, n)
			}
			return true
		})
	}
	return nil
}

// check reports call if its callee is a target function returning an
// error.
func check(pass *framework.Pass, call *ast.CallExpr, how string) {
	fn := target(pass, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(), "error from %s.%s %s: a dropped control-plane error hangs the peer — handle it or annotate //nolint:errcheck", framework.PkgBase(fn.Pkg()), fn.Name(), how)
}

// checkFuncLit reports a go/defer of a function literal whose own
// error result vanishes at the statement boundary. Only literals whose
// body reaches into a target package are in scope: the analyzer guards
// control-plane errors, not every error-returning closure.
func checkFuncLit(pass *framework.Pass, call *ast.CallExpr, how string) {
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok || lit.Type.Results == nil {
		return
	}
	returnsError := false
	for _, field := range lit.Type.Results.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isErrorType(tv.Type) {
			returnsError = true
		}
	}
	if !returnsError {
		return
	}
	touches := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && target(pass, c) != nil {
			touches = true
		}
		return !touches
	})
	if !touches {
		return
	}
	pass.Reportf(lit.Pos(), "error returned by this function literal is unobservable in a %s: a dropped control-plane error hangs the peer — handle it inside the literal or annotate //nolint:errcheck", how)
}

// checkValueSpec reports the `var _ = f()` declaration form, which
// drops an error exactly like `_ = f()` but is not an AssignStmt.
func checkValueSpec(pass *framework.Pass, n *ast.ValueSpec) {
	for i, v := range n.Values {
		call, ok := v.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := target(pass, call)
		if fn == nil {
			continue
		}
		// var x, _ = f() (multi-value) or var _ = f() (single).
		if len(n.Values) == 1 && len(n.Names) > 1 {
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			for j := 0; j < sig.Results().Len() && j < len(n.Names); j++ {
				if isErrorType(sig.Results().At(j).Type()) && n.Names[j].Name == "_" {
					pass.Reportf(n.Names[j].Pos(), "error from %s.%s assigned to _: a dropped control-plane error hangs the peer — handle it or annotate //nolint:errcheck", framework.PkgBase(fn.Pkg()), fn.Name())
				}
			}
			continue
		}
		if i < len(n.Names) && n.Names[i].Name == "_" {
			if tv, ok := pass.TypesInfo.Types[call]; ok && isErrorType(tv.Type) {
				pass.Reportf(n.Names[i].Pos(), "error from %s.%s assigned to _: a dropped control-plane error hangs the peer — handle it or annotate //nolint:errcheck", framework.PkgBase(fn.Pkg()), fn.Name())
			}
		}
	}
}

// checkAssign reports error results bound to the blank identifier.
func checkAssign(pass *framework.Pass, n *ast.AssignStmt) {
	// Multi-value form: x, _ := f()
	if len(n.Rhs) == 1 {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(n.Lhs) > 1 {
			fn := target(pass, call)
			if fn == nil {
				return
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return
			}
			for i := 0; i < sig.Results().Len() && i < len(n.Lhs); i++ {
				if !isErrorType(sig.Results().At(i).Type()) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(n.Lhs[i].Pos(), "error from %s.%s assigned to _: a dropped control-plane error hangs the peer — handle it or annotate //nolint:errcheck", framework.PkgBase(fn.Pkg()), fn.Name())
				}
			}
			return
		}
	}
	// Parallel form: _ = f()
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := target(pass, call)
		if fn == nil {
			continue
		}
		id, ok := n.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[call]; ok && isErrorType(tv.Type) {
			pass.Reportf(n.Lhs[i].Pos(), "error from %s.%s assigned to _: a dropped control-plane error hangs the peer — handle it or annotate //nolint:errcheck", framework.PkgBase(fn.Pkg()), fn.Name())
		}
	}
}

// target resolves call's callee to a *types.Func declared in a target
// package whose signature returns an error; nil otherwise.
func target(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	fn, ok := framework.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil || !targetPkg(fn.Pkg().Path()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return fn
		}
	}
	return nil
}

func targetPkg(path string) bool {
	for _, p := range targetPkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }
