// Package goroleak flags `go` statements that spawn goroutines with
// no shutdown edge — the leak class behind duplicated recovery
// goroutines in the fault-tolerance work (§2.2: Coordinator, MSU and
// client maintain long-lived service goroutines that must terminate on
// teardown).
//
// A goroutine is reported when its body provably can never exit: it
// contains an unconditional `for { ... }` loop with no way out (no
// return, no break that targets that loop, no goto, no panic or
// os.Exit), or a bare `select {}`. The break analysis is
// nesting-aware: an unlabeled break inside a nested for/switch/select
// binds to the inner construct, not the spawned loop — the classic
// trap where `case <-quit: break` leaves the loop spinning.
//
// Spawns of named functions and methods are resolved across the whole
// load set, so `go m.reconnect()` is checked against reconnect's body
// wherever it is declared. The check is one level deep: a loop hidden
// behind a further call is not followed. Deliberately immortal
// goroutines can be suppressed with //nolint:goroleak plus a
// justification.
package goroleak

import (
	"go/ast"
	"go/token"

	"calliope/internal/analysis/framework"
)

// Analyzer is the goroleak check.
var Analyzer = &framework.Analyzer{
	Name:   "goroleak",
	Doc:    "detect go statements whose goroutine has no shutdown edge (an inescapable loop or select{})",
	RunAll: runAll,
}

func runAll(pass *framework.ProjectPass) error {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			info := pkg.Info
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				var body *ast.BlockStmt
				if lit, okL := g.Call.Fun.(*ast.FuncLit); okL {
					body = lit.Body
				} else if fn := pass.Funcs[framework.Callee(info, g.Call)]; fn != nil {
					body = fn.Decl.Body
				}
				if body == nil {
					return true
				}
				if pos, what, leaky := neverExits(body); leaky {
					pass.Reportf(g.Pos(), "goroutine never exits: the %s at line %d has no return, break, or terminating condition, so no shutdown edge (quit/done/ctx) can stop it; give it an exit path or suppress with //nolint:goroleak and a justification", what, pass.Fset.Position(pos).Line)
				}
				return true
			})
		}
	}
	return nil
}

// neverExits reports the first construct in body that can never
// terminate: an unconditional for loop with no escape, or select{}.
// Nested function literals are separate goroutine-candidate bodies and
// are not part of this body's control flow.
func neverExits(body *ast.BlockStmt) (pos token.Pos, what string, leaky bool) {
	found := false
	var foundPos token.Pos
	var foundWhat string
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				found, foundPos, foundWhat = true, n.Pos(), "select{}"
				return false
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				return true
			}
			if !loopExits(n.Body) {
				found, foundPos, foundWhat = true, n.Pos(), "for loop"
				return false
			}
		}
		return true
	})
	return foundPos, foundWhat, found
}

// loopExits reports whether an unconditional for loop's body contains
// an escape: a return, a break binding to this loop (unlabeled at
// depth 0, or labeled with a label declared outside the loop), a goto
// that jumps out, or a terminal call (panic, os.Exit, runtime.Goexit,
// log.Fatal*). A label declared inside the body names a nested
// construct, so branching to it stays inside the loop.
func loopExits(body *ast.BlockStmt) bool {
	nested := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if l, ok := n.(*ast.LabeledStmt); ok {
			nested[l.Label.Name] = true
		}
		return true
	})
	exits := false
	var stack []ast.Node
	breakDepth := func() int {
		d := 0
		for _, n := range stack {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				d++
			}
		}
		return d
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if exits {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			switch n.Tok {
			case token.BREAK:
				if n.Label == nil {
					if breakDepth() == 0 {
						exits = true
					}
				} else if !nested[n.Label.Name] {
					exits = true
				}
			case token.GOTO:
				if n.Label != nil && !nested[n.Label.Name] {
					exits = true
				}
			}
		case *ast.CallExpr:
			if isTerminalCall(n) {
				exits = true
			}
		}
		return true
	})
	return exits
}

// isTerminalCall recognizes calls that never return.
func isTerminalCall(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := f.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + f.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}
