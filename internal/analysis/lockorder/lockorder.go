// Package lockorder builds a tree-wide mutex acquisition graph and
// reports lock-order cycles — the deadlock class Calliope risks between
// the MSU's control lock, its recorder and content locks, the wire peers'
// locks and cache eviction (§2.2/§2.3: scheduling and delivery touch
// shared state from many goroutines).
//
// Mutexes are grouped into classes by declaration site: a field
// mutex's class is Pkg.Type.field (every instance of msu.recorder.mu is
// one class), a package-level or local mutex is its own class. The
// analyzer scans every function, tracking the set of held classes:
//
//   - x.mu.Lock()/RLock() while holding y.mu adds the edge y.mu → x.mu;
//   - calling a function that (transitively) acquires x.mu while
//     holding y.mu adds the same edge, so cross-package ordering —
//     coordinator holding its ledger lock while a wire call takes the
//     peer lock — is visible;
//   - x.mu.Lock() while the same instance of x.mu is already held is
//     reported directly (sync mutexes are not reentrant).
//
// Any edge that lies on a cycle in the resulting graph is reported. A
// few deliberate approximations keep the false-positive rate near
// zero: branch arms are scanned with a copy of the held set (an
// unlock-and-return arm does not unlock the fall-through path),
// goroutines spawned with `go` start with an empty held set (they do
// not inherit the spawner's locks), and a callee re-acquiring the
// class the caller already holds is not an edge (the *Locked-suffix
// convention: such a function runs under its caller's lock and may
// drop and retake it, as testdata's waitTableLocked does). Cycles that
// are provably unreachable can be suppressed with //nolint:lockorder
// plus a justification.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"calliope/internal/analysis/framework"
)

// Analyzer is the lockorder check.
var Analyzer = &framework.Analyzer{
	Name:   "lockorder",
	Doc:    "detect lock-order cycles in the tree-wide mutex acquisition graph",
	RunAll: runAll,
}

// heldLock is one acquisition currently in force during the scan.
type heldLock struct {
	class    string
	instance string
	pos      token.Pos
	write    bool
}

// edge is the first witness of a lock-order edge from → to.
type edge struct {
	pos     token.Pos // the acquiring site (lock call or function call)
	heldPos token.Pos // where the held lock was taken
	via     string    // callee name when the acquisition is inside a call
}

type state struct {
	pass  *framework.ProjectPass
	acq   map[types.Object]map[string]bool
	edges map[string]map[string]*edge
}

func runAll(pass *framework.ProjectPass) error {
	st := &state{
		pass:  pass,
		acq:   make(map[types.Object]map[string]bool),
		edges: make(map[string]map[string]*edge),
	}
	st.buildAcquireSets()
	for _, fi := range st.sortedFuncs() {
		st.scanFunc(fi)
	}
	st.reportCycles()
	return nil
}

// sortedFuncs returns the functions in file-position order so edge
// witnesses (first edge wins) are deterministic.
func (st *state) sortedFuncs() []*framework.Func {
	out := make([]*framework.Func, 0, len(st.pass.Funcs))
	for _, fi := range st.pass.Funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// buildAcquireSets computes, for every function, the set of lock
// classes it acquires directly or through calls (a fixpoint over the
// resolvable call graph). Goroutines spawned with `go` are excluded:
// the spawner does not hold-and-wait on their acquisitions.
func (st *state) buildAcquireSets() {
	direct := make(map[types.Object]map[string]bool)
	callees := make(map[types.Object][]types.Object)
	for obj, fi := range st.pass.Funcs {
		d := make(map[string]bool)
		var calls []types.Object
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// Spawned goroutines acquire concurrently, not while
				// the caller waits; only the argument expressions run
				// in this function.
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, visit)
				}
				return false
			case *ast.CallExpr:
				if op, cls, _, _ := st.lockCall(fi, n); op != "" {
					if op == "lock" {
						d[cls] = true
					}
					return true
				}
				if callee := framework.Callee(fi.Pkg.Info, n); callee != nil {
					calls = append(calls, callee)
				}
			}
			return true
		}
		ast.Inspect(fi.Decl.Body, visit)
		direct[obj] = d
		callees[obj] = calls
	}
	for obj, d := range direct {
		acc := make(map[string]bool, len(d))
		for c := range d {
			acc[c] = true
		}
		st.acq[obj] = acc
	}
	for changed := true; changed; {
		changed = false
		for obj := range st.pass.Funcs {
			acc := st.acq[obj]
			for _, callee := range callees[obj] {
				for c := range st.acq[callee] {
					if !acc[c] {
						acc[c] = true
						changed = true
					}
				}
			}
		}
	}
}

// scanFunc walks one function body with a held-lock set, recording
// ordering edges.
func (st *state) scanFunc(fi *framework.Func) {
	st.scanStmts(fi, fi.Decl.Body.List, make(map[string]heldLock))
}

func (st *state) scanStmts(fi *framework.Func, stmts []ast.Stmt, held map[string]heldLock) {
	for _, s := range stmts {
		st.scanStmt(fi, s, held)
	}
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (st *state) scanStmt(fi *framework.Func, s ast.Stmt, held map[string]heldLock) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, cls, inst, write := st.lockCall(fi, call); op != "" {
				switch op {
				case "lock":
					if h, dup := held[cls]; dup {
						if h.instance == inst && (h.write || write) {
							st.pass.Reportf(call.Pos(), "%s is locked again while already held (locked at line %d): sync mutexes are not reentrant, this deadlocks", cls, st.pass.Fset.Position(h.pos).Line)
						}
						return
					}
					for _, h := range sortedHeld(held) {
						st.addEdge(h, cls, call.Pos(), "")
					}
					held[cls] = heldLock{class: cls, instance: inst, pos: call.Pos(), write: write}
				case "unlock":
					delete(held, cls)
				}
				return
			}
		}
		st.scanCalls(fi, s.X, held)
	case *ast.DeferStmt:
		if op, _, _, _ := st.lockCall(fi, s.Call); op != "" {
			// `defer mu.Unlock()` keeps the lock held to function end,
			// which is exactly how the held set already models it.
			return
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st.scanStmts(fi, lit.Body.List, copyHeld(held))
			return
		}
		st.scanCalls(fi, s.Call, held)
	case *ast.GoStmt:
		// The goroutine starts with no inherited locks; its argument
		// expressions evaluate in the current context.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st.scanStmts(fi, lit.Body.List, make(map[string]heldLock))
		}
		for _, arg := range s.Call.Args {
			st.scanCalls(fi, arg, held)
		}
	case *ast.BlockStmt:
		st.scanStmts(fi, s.List, held)
	case *ast.LabeledStmt:
		st.scanStmt(fi, s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			st.scanStmt(fi, s.Init, held)
		}
		st.scanCalls(fi, s.Cond, held)
		st.scanStmts(fi, s.Body.List, copyHeld(held))
		if s.Else != nil {
			st.scanStmt(fi, s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st.scanStmt(fi, s.Init, held)
		}
		if s.Cond != nil {
			st.scanCalls(fi, s.Cond, held)
		}
		body := copyHeld(held)
		st.scanStmts(fi, s.Body.List, body)
		if s.Post != nil {
			st.scanStmt(fi, s.Post, body)
		}
	case *ast.RangeStmt:
		st.scanCalls(fi, s.X, held)
		st.scanStmts(fi, s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			st.scanStmt(fi, s.Init, held)
		}
		if s.Tag != nil {
			st.scanCalls(fi, s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				st.scanStmts(fi, c.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st.scanStmt(fi, s.Init, held)
		}
		st.scanCalls(fi, s.Assign, held)
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				st.scanStmts(fi, c.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				arm := copyHeld(held)
				if c.Comm != nil {
					st.scanStmt(fi, c.Comm, arm)
				}
				st.scanStmts(fi, c.Body, arm)
			}
		}
	default:
		st.scanCalls(fi, s, held)
	}
}

// scanCalls finds resolvable calls inside an expression or simple
// statement and propagates the callee's transitive acquisitions as
// edges from every held lock.
func (st *state) scanCalls(fi *framework.Func, n ast.Node, held map[string]heldLock) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // execution time unknown; go/defer are handled above
		case *ast.CallExpr:
			if op, _, _, _ := st.lockCall(fi, n); op != "" {
				return true
			}
			callee := framework.Callee(fi.Pkg.Info, n)
			if callee == nil {
				return true
			}
			acq, ok := st.acq[callee]
			if !ok {
				return true
			}
			for _, cls := range sortedKeys(acq) {
				for _, h := range sortedHeld(held) {
					// A callee retaking the caller's class is the
					// *Locked-suffix convention, not an ordering edge.
					if cls != h.class {
						st.addEdge(h, cls, n.Pos(), callee.Name())
					}
				}
			}
		}
		return true
	})
}

func (st *state) addEdge(h heldLock, to string, pos token.Pos, via string) {
	m := st.edges[h.class]
	if m == nil {
		m = make(map[string]*edge)
		st.edges[h.class] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = &edge{pos: pos, heldPos: h.pos, via: via}
	}
}

// lockCall classifies call as a mutex op: op is "lock"/"unlock" or ""
// when it is not one.
func (st *state) lockCall(fi *framework.Func, call *ast.CallExpr) (op, class, instance string, write bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", "", "", false
	}
	write = sel.Sel.Name == "Lock" || sel.Sel.Name == "Unlock"
	info := fi.Pkg.Info
	recv := ast.Unparen(sel.X)
	tv, ok := info.Types[recv]
	if !ok || !framework.IsNamed(tv.Type, "sync", "Mutex", "RWMutex") {
		return "", "", "", false
	}
	class, ok = mutexClass(info, fi, recv)
	if !ok {
		return "", "", "", false
	}
	instance, _ = framework.RefKey(info, recv)
	return op, class, instance, write
}

// mutexClass names the declaration-site class of a mutex expression.
func mutexClass(info *types.Info, fi *framework.Func, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// owner.field — class is OwnerType.field.
		tv, ok := info.Types[x.X]
		if !ok {
			return "", false
		}
		t := tv.Type
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
		}
		if named, okn := t.(*types.Named); okn && named.Obj() != nil {
			return typeDisplay(named.Obj()) + "." + x.Sel.Name, true
		}
		return "", false
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return framework.PkgBase(obj.Pkg()) + "." + obj.Name(), true
		}
		// Local or parameter mutex: a class of its own, keyed by its
		// declaration so same-named locals in other functions stay
		// distinct.
		return fmt.Sprintf("%s.%s.%s", framework.PkgBase(fi.Pkg.Types), fi.Decl.Name.Name, obj.Name()), true
	case *ast.StarExpr:
		return mutexClass(info, fi, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return mutexClass(info, fi, x.X)
		}
	}
	return "", false
}

func typeDisplay(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return framework.PkgBase(obj.Pkg()) + "." + obj.Name()
}

// reportCycles reports every edge that lies on a cycle.
func (st *state) reportCycles() {
	for _, from := range sortedKeys(st.edges) {
		for _, to := range sortedKeys(st.edges[from]) {
			path := st.findPath(to, from)
			if path == nil {
				continue
			}
			e := st.edges[from][to]
			cycle := append([]string{from}, path...)
			heldLine := st.pass.Fset.Position(e.heldPos).Line
			if e.via != "" {
				st.pass.Reportf(e.pos, "call to %s acquires %s while holding %s (held since line %d), creating a lock-order cycle (%s); acquire mutexes in one global order", e.via, to, from, heldLine, strings.Join(cycle, " → "))
			} else {
				st.pass.Reportf(e.pos, "acquiring %s while holding %s (held since line %d) creates a lock-order cycle (%s); acquire mutexes in one global order", to, from, heldLine, strings.Join(cycle, " → "))
			}
		}
	}
}

// findPath returns the shortest node path from → … → to in the edge
// graph, or nil when unreachable.
func (st *state) findPath(from, to string) []string {
	type hop struct {
		node string
		prev *hop
	}
	visited := map[string]bool{from: true}
	queue := []*hop{{node: from}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.node == to {
			var path []string
			for ; h != nil; h = h.prev {
				path = append([]string{h.node}, path...)
			}
			return path
		}
		for _, next := range sortedKeys(st.edges[h.node]) {
			if !visited[next] {
				visited[next] = true
				queue = append(queue, &hop{node: next, prev: h})
			}
		}
	}
	return nil
}

func sortedHeld(held map[string]heldLock) []heldLock {
	out := make([]heldLock, 0, len(held))
	for _, h := range held {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// sortedKeys returns m's keys in order, so witnesses are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
