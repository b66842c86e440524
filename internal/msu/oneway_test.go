package msu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// writerSteps lists the steps of putting content on a disk (or taking a
// failed attempt back off) and the only function in this package's
// non-test code allowed each: content.go's one writer. A fourth copy of
// create → build → finalize → commit → set attributes fails this test
// instead of growing back unnoticed.
var writerSteps = map[string][]string{
	"Finalize": {"packetWriter.publish"},                // closing an IB-tree
	"Commit":   {"fileSet.publish"},                     // the commit point
	"Create":   {"fileSet.create"},                      // and only with nil attributes
	"Remove":   {"fileSet.abort"},                       // removing a file set
	"AttrType": {"packetWriter.publish", "contentType"}, // the one write, and the one rule that reads it
}

// TestOneWayOntoTheDisk parses the package's non-test sources and checks
// every use of a writer step against writerSteps.
func TestOneWayOntoTheDisk(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, file := range pkgs["msu"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue // AttrType's own declaration is not a use
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			use := func(step string, at token.Pos) {
				seen[step]++
				for _, allowed := range writerSteps[step] {
					if name == allowed {
						return
					}
				}
				t.Errorf("%s: %s uses %s; only %v may", fset.Position(at), name, step, writerSteps[step])
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name == "AttrType" {
						use("AttrType", n.Pos())
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || writerSteps[sel.Sel.Name] == nil {
						break
					}
					use(sel.Sel.Name, n.Pos())
					if sel.Sel.Name == "Create" {
						if arg, ok := n.Args[len(n.Args)-1].(*ast.Ident); !ok || arg.Name != "nil" {
							t.Errorf("%s: Create is passed attributes; a file has none until it is published", fset.Position(n.Pos()))
						}
					}
				}
				return true
			})
		}
	}
	for step := range writerSteps {
		if seen[step] == 0 {
			t.Errorf("no use of %s found: the guard no longer sees the writer", step)
		}
	}
}
