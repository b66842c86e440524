package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Func is one function or method declared with a body in the load set.
type Func struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// indexFuncs maps every function and method declared with a body in
// pkgs to its declaration, so a call resolves across packages.
func indexFuncs(pkgs []*Package) map[types.Object]*Func {
	funcs := make(map[types.Object]*Func)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj := pkg.Info.Defs[fd.Name]; obj != nil {
						funcs[obj] = &Func{Decl: fd, Pkg: pkg}
					}
				}
			}
		}
	}
	return funcs
}

// RefKey produces a stable key for a variable or field-chain
// expression, so `q`, `p.q`, `(p.q)`, `*p.q` and `&p.q` alias alike.
func RefKey(info *types.Info, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("obj@%d", obj.Pos()), true
	case *ast.SelectorExpr:
		base, ok := RefKey(info, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.StarExpr:
		return RefKey(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return RefKey(info, x.X)
		}
	}
	return "", false
}

// Callee resolves what a call names — a function, a method, or a
// func-typed variable or field — to its object; nil when the call is
// of any other expression.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// IsNamed reports whether t is (a pointer to) a type called one of
// names, declared in package pkg or in a package whose path ends in
// "/"+pkg.
func IsNamed(t types.Type, pkg string, names ...string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !slices.Contains(names, named.Obj().Name()) {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// PkgBase is the last element of p's import path, the name diagnostics
// give the package.
func PkgBase(p *types.Package) string {
	path := p.Path()
	return path[strings.LastIndex(path, "/")+1:]
}
