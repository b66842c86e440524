// Package spscrole enforces the single-producer/single-consumer
// contract of internal/queue.SPSC (§2.3: the MSU's shared-memory queue
// is atomic-counter-coordinated and safe only with exactly one enqueue
// goroutine and one dequeue goroutine).
//
// Within each function it assigns every statement to a goroutine
// context: the function body itself, plus one context per `go
// func(){...}` literal (recursively). It then reports:
//
//   - a spawned goroutine that both enqueues and dequeues the same
//     queue (a queue confined to one goroutine needs no SPSC, and two
//     such goroutines corrupt it);
//   - a queue with more than one producer context or more than one
//     consumer context (Dequeue and Peek are both consumer-side);
//   - a `go` statement inside a loop whose goroutine touches the
//     queue, which spawns an unbounded number of same-role goroutines;
//   - the same queue passed to two `go` invocations of the same named
//     function, which runs identical producer/consumer code twice.
//
// The analysis is intraprocedural and keys queues by their variable or
// field path, so it cannot see every escape — it is a tripwire for the
// common refactoring accidents, not a proof.
package spscrole

import (
	"fmt"
	"go/ast"
	"go/token"

	"calliope/internal/analysis/framework"
)

// Analyzer is the spscrole check.
var Analyzer = &framework.Analyzer{
	Name: "spscrole",
	Doc:  "detect violations of the SPSC queue single-producer/single-consumer contract",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeFunc(pass, fd)
		}
	}
	return nil
}

// use records where one goroutine context touches a queue.
type use struct {
	pos    token.Pos
	weight int // 2 when the touching goroutine is spawned in a loop
}

// queueUses aggregates per-queue producer/consumer contexts.
type queueUses struct {
	enq map[int]use // context id → first Enqueue
	deq map[int]use // context id → first Dequeue/Peek
}

// walker walks one function, tracking goroutine contexts.
type walker struct {
	pass   *framework.Pass
	queues map[string]*queueUses
	// spawns counts `go F(q)` per (queue key, callee) for the
	// same-function fan-out check.
	spawns map[string]use

	nextCtx int
}

func analyzeFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	w := &walker{
		pass:   pass,
		queues: make(map[string]*queueUses),
		spawns: make(map[string]use),
	}
	w.walkStmts(fd.Body, 0, 1)
	w.report()
}

// walkStmts visits a statement tree inside goroutine context ctx.
// weight is 2 when the context was spawned inside a loop (meaning the
// code may run in many goroutines at once).
func (w *walker) walkStmts(n ast.Node, ctx, weight int) {
	loopDepth := 0
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			// Walk the loop manually so we can restore loopDepth.
			if f, ok := n.(*ast.ForStmt); ok {
				if f.Init != nil {
					ast.Inspect(f.Init, visit)
				}
				if f.Cond != nil {
					ast.Inspect(f.Cond, visit)
				}
				if f.Post != nil {
					ast.Inspect(f.Post, visit)
				}
				ast.Inspect(f.Body, visit)
			} else {
				r := n.(*ast.RangeStmt)
				if r.X != nil {
					ast.Inspect(r.X, visit)
				}
				ast.Inspect(r.Body, visit)
			}
			loopDepth--
			return false
		case *ast.GoStmt:
			spawnWeight := 1
			if loopDepth > 0 || weight > 1 {
				spawnWeight = 2
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				// Arguments evaluate in the current goroutine.
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, visit)
				}
				w.nextCtx++
				w.walkStmts(lit.Body, w.nextCtx, spawnWeight)
				return false
			}
			w.recordSpawn(n, spawnWeight)
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.FuncLit:
			// A non-go literal (deferred, called inline, stored) is
			// conservatively treated as running in the current context.
			ast.Inspect(n.Body, visit)
			return false
		case *ast.CallExpr:
			w.recordCall(n, ctx, weight)
			return true
		}
		return true
	}
	ast.Inspect(n, visit)
}

// recordCall notes an Enqueue/Dequeue/Peek on an SPSC value.
func (w *walker) recordCall(call *ast.CallExpr, ctx, weight int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "Enqueue" && name != "Dequeue" && name != "Peek" {
		return
	}
	selection := w.pass.TypesInfo.Selections[sel]
	if selection == nil || !framework.IsNamed(selection.Recv(), "queue", "SPSC") {
		return
	}
	key, ok := framework.RefKey(w.pass.TypesInfo, sel.X)
	if !ok {
		return
	}
	q := w.queues[key]
	if q == nil {
		q = &queueUses{enq: make(map[int]use), deq: make(map[int]use)}
		w.queues[key] = q
	}
	m := q.deq
	if name == "Enqueue" {
		m = q.enq
	}
	if prev, ok := m[ctx]; !ok || weight > prev.weight {
		m[ctx] = use{pos: call.Pos(), weight: weight}
	}
}

// recordSpawn notes `go F(..., q, ...)` for the duplicate-fan-out check.
func (w *walker) recordSpawn(g *ast.GoStmt, weight int) {
	fn := framework.Callee(w.pass.TypesInfo, g.Call)
	if fn == nil {
		return
	}
	for _, arg := range g.Call.Args {
		tv, ok := w.pass.TypesInfo.Types[arg]
		if !ok || !framework.IsNamed(tv.Type, "queue", "SPSC") {
			continue
		}
		qkey, ok := framework.RefKey(w.pass.TypesInfo, arg)
		if !ok {
			continue
		}
		id := fmt.Sprintf("%s→%s@%d", qkey, fn.Name(), fn.Pos())
		if _, seen := w.spawns[id]; seen || weight > 1 {
			w.pass.Reportf(g.Pos(), "SPSC queue passed to multiple goroutines running %s: the single-role contract needs exactly one producer and one consumer", fn.Name())
		} else {
			w.spawns[id] = use{pos: g.Pos(), weight: weight}
		}
	}
}

// report emits the per-queue diagnostics collected by the walk.
func (w *walker) report() {
	for _, q := range w.queues {
		// A spawned goroutine acting as both producer and consumer.
		for ctx, e := range q.enq {
			if ctx == 0 {
				continue // sequential use in the body is single-threaded and safe
			}
			if d, ok := q.deq[ctx]; ok {
				w.pass.Reportf(e.pos, "goroutine both enqueues and dequeues the same SPSC queue (dequeue at %s)", w.pass.Fset.Position(d.pos))
			}
		}
		w.reportMultiRole(q.enq, "producers", "Enqueue")
		w.reportMultiRole(q.deq, "consumers", "Dequeue/Peek")
	}
}

// reportMultiRole flags >1 effective contexts performing one role.
func (w *walker) reportMultiRole(m map[int]use, role, op string) {
	total := 0
	var last use
	for _, u := range m {
		total += u.weight
		if u.pos > last.pos {
			last = u
		}
	}
	if total > 1 {
		if len(m) == 1 {
			w.pass.Reportf(last.pos, "%s on an SPSC queue from a goroutine spawned in a loop: the queue would have multiple %s", op, role)
		} else {
			w.pass.Reportf(last.pos, "SPSC queue has multiple %s (%d goroutine contexts call %s)", role, len(m), op)
		}
	}
}
