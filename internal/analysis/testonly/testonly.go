// Package testonly reports production code that only tests reach: a
// function or method with a body, in a non-test file, that no root of the
// production code reaches.
//
// The loader type-checks only non-test files, so every use it records
// is a production use. A use is any reference to the function's object
// — a call, a method value, a function value — and a method of a generic
// type counts through its instantiations. A function reaches what its
// body refers to; a use outside every function body (a package-level
// var's initializer) is a root's. The roots are main and init; a method
// whose name is a method of an interface type declared in the load set or
// in a package one of its packages imports, the standard library
// included, or written in their code (String, Error, MarshalJSON,
// Len/Less/Swap, Write, Import), since an interface call records no use
// of the concrete method; every function of the packages in KeptPkgs;
// and every function kept with //nolint:testonly on the line of its
// name. A chain no root reaches is reported whole, every link at once.
//
// An exported function may be called from a package outside the load
// set, so exported names are roots unless the load set is the whole
// module (ProjectPass.Whole); a partial load set reports only unexported
// functions, whose every reader it holds.
//
// A report has three ways out: delete the function, move it into a
// _test.go file of its package, or keep it with
// //nolint:testonly // <reason> on the line of its name.
package testonly

import (
	"go/ast"
	"go/types"
	"strings"

	"calliope/internal/analysis/framework"
)

// Analyzer is the testonly check.
var Analyzer = &framework.Analyzer{
	Name:   "testonly",
	Doc:    "report functions that no root of the non-test code reaches",
	RunAll: run,
}

// KeptPkgs lists the package-path suffixes whose functions stay though
// only tests, benchmarks or nothing reach them, with the reason for
// each.
var KeptPkgs = []string{
	"internal/faultinject",           // test support: the fault hooks tests install
	"internal/await",                 // test support: the tests' condition wait
	"internal/leakcheck",             // test support: every package's TestMain
	"internal/analysis/analysistest", // test support: every analyzer's // want suite
	"internal/sim",                   // §4 reproduction: the discrete-event engine, until ROADMAP item 12
	"internal/simhw",                 // §4 reproduction: the 1996 testbed's probes, until ROADMAP item 12
	"internal/simmsu",                // §4 reproduction: the simulated MSU, until ROADMAP item 12
}

func run(pass *framework.ProjectPass) error {
	ifaceMethods := interfaceMethods(pass.Pkgs)
	reached := make(map[types.Object]bool)
	var next []types.Object
	reach := func(fn types.Object) {
		if !reached[fn] {
			reached[fn] = true
			next = append(next, fn)
		}
	}
	// refs holds what each function's body refers to.
	refs := make(map[types.Object][]types.Object)
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							if self == nil {
								reach(fn.Origin())
							} else {
								refs[self] = append(refs[self], fn.Origin())
							}
						}
					}
					return true
				})
			}
		}
	}
	for obj, fn := range pass.Funcs {
		name := obj.Name()
		switch {
		case name == "main", name == "init", name == "_",
			fn.Decl.Recv != nil && ifaceMethods[name],
			kept(fn.Pkg.Path),
			!pass.Whole && obj.Exported(),
			pass.Suppressed(fn.Decl.Name.Pos()):
			reach(obj)
		}
	}
	for len(next) > 0 {
		fn := next[len(next)-1]
		next = next[:len(next)-1]
		for _, callee := range refs[fn] {
			reach(callee)
		}
	}
	for obj, fn := range pass.Funcs {
		if !reached[obj] {
			pass.Reportf(fn.Decl.Name.Pos(), "%s is reached only by tests, or by nothing: delete it, move it into a _test.go file of its package, or keep it with //nolint:testonly // <reason> on this line", describe(obj))
		}
	}
	return nil
}

// interfaceMethods names every method of an interface type declared
// at package level in pkgs or in a package one of them imports, or
// written anywhere in their code (error's Error among them).
func interfaceMethods(pkgs []*framework.Package) map[string]bool {
	names := make(map[string]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	addPkg := func(p *types.Package) {
		scope := p.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, pkg := range pkgs {
		addPkg(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			addPkg(imp)
		}
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
		}
	}
	return names
}

func kept(path string) bool {
	for _, p := range KeptPkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// describe names obj as pkg.Func or pkg.Type.Method.
func describe(obj types.Object) string {
	name := obj.Name()
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return framework.PkgBase(obj.Pkg()) + "." + name
}
