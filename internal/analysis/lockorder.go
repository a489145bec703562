package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
	"sync"
)

// AnalyzerLockOrder checks that the module's mutexes are always taken in
// one order. Every (held, acquired) pair observed anywhere in the module —
// including acquisitions made transitively through helper calls and
// interface method sets, via the lock summaries in summary.go — is an
// edge of a module-wide acquisition graph. A cycle means two goroutines
// can deadlock by taking the same locks in opposite orders; it is
// reported once, from the Finish phase.
//
// A class is held at a program point when every path into the point holds
// it: the dataflow fact is a must-held set, joined by intersection, so a
// lock taken on one branch only adds no edge after the join. Methods whose
// name ends in "Locked" start with every receiver mutex held; every other
// function, and every function literal (a spawned goroutine included),
// starts with nothing held. `defer mu.Unlock()` keeps the class held
// through the function, matching its runtime semantics.
var AnalyzerLockOrder = &Analyzer{
	Name:   "lockorder",
	Doc:    "detect lock-order cycles: mutex classes taken in opposite orders anywhere in the module, through calls and interface method sets",
	Run:    runLockOrder,
	Finish: finishLockOrder,
}

// lockFact is the dataflow fact: the mutex classes held on every path
// into a program point. reached is false until some path gets there.
type lockFact struct {
	reached bool
	held    map[string]bool
}

func joinLockFacts(a, b lockFact) lockFact {
	if !a.reached {
		return b
	}
	if !b.reached {
		return a
	}
	held := maps.Clone(a.held)
	maps.DeleteFunc(held, func(c string, _ bool) bool { return !b.held[c] })
	return lockFact{reached: true, held: held}
}

func equalLockFacts(a, b lockFact) bool {
	return a.reached == b.reached && maps.Equal(a.held, b.held)
}

// lockEdge is one observed acquisition order: to was acquired while from
// was held.
type lockEdge struct {
	from, to string
}

// lockAccumulator collects acquisition-order edges from the concurrent
// per-package passes for the Finish phase's cycle detection.
type lockAccumulator struct {
	mu    sync.Mutex
	edges map[lockEdge]token.Position
}

// record notes an edge, keeping the earliest observation site so reports
// are deterministic regardless of worker scheduling.
func (a *lockAccumulator) record(from, to string, pos token.Position) {
	if from == to {
		return // re-entry, not an ordering: it hangs the first test that reaches it
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.edges == nil {
		a.edges = make(map[lockEdge]token.Position)
	}
	e := lockEdge{from: from, to: to}
	old, ok := a.edges[e]
	if !ok || positionLess(pos, old) {
		a.edges[e] = pos
	}
}

func positionLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func runLockOrder(p *Pass) {
	rel := p.Pkg.Rel()
	if !hasPathPrefix(rel, "internal") && !hasPathPrefix(rel, "sim") {
		return
	}
	facts := p.runner.lockModel(p.Mod)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBody(p, facts, fd.Body, methodEntryClasses(p.Pkg, fd))
			// Every function literal under the declaration is its own
			// function, entered with nothing held.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkLockBody(p, facts, fl.Body, nil)
				}
				return true
			})
		}
	}
}

// checkLockBody solves the lock-state dataflow over one function body and
// records its acquisition edges into the module accumulator.
func checkLockBody(p *Pass, facts *lockFacts, body *ast.BlockStmt, entryHeld []string) {
	g := buildCFG(body)
	if g == nil {
		return // unstructured control flow: stay silent rather than guess
	}
	d := dataflow[lockFact]{
		Bottom: func() lockFact { return lockFact{} },
		Entry: func() lockFact {
			f := lockFact{reached: true, held: make(map[string]bool)}
			for _, c := range entryHeld {
				f.held[c] = true
			}
			return f
		},
		Join:     joinLockFacts,
		Equal:    equalLockFacts,
		Transfer: func(n ast.Node, f lockFact) lockFact { return lockTransfer(p.Pkg, n, f) },
	}
	in := d.forward(g)
	for _, b := range g.blocks {
		f := in[b]
		for _, n := range b.nodes {
			recordLockEdges(p, facts, n, f)
			f = lockTransfer(p.Pkg, n, f)
		}
	}
}

// lockTransfer applies one node's effect on the lock state: Lock/RLock
// statements add the class, Unlock/RUnlock statements remove it, and
// deferred unlocks hold to function exit and are no-ops.
func lockTransfer(pkg *Package, n ast.Node, f lockFact) lockFact {
	stmt, ok := n.(*ast.ExprStmt)
	if !ok {
		return f
	}
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return f
	}
	class, op := lockOp(pkg, call)
	if class == "" || !f.reached {
		return f
	}
	held := maps.Clone(f.held)
	if op == lockAcquire {
		held[class] = true
	} else {
		delete(held, class)
	}
	return lockFact{reached: true, held: held}
}

// recordLockEdges records, for one CFG node under fact f, an edge from
// every held class to each class the node acquires, directly or through
// its callees' summaries. Function literals are their own functions, and
// a `go` statement's goroutine starts with nothing held, so neither adds
// an edge here.
func recordLockEdges(p *Pass, facts *lockFacts, n ast.Node, f lockFact) {
	if !f.reached || len(f.held) == 0 {
		return
	}
	held := sortedBoolKeys(f.held)
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			var acq []string
			switch class, op := lockOp(p.Pkg, m); op {
			case lockAcquire:
				acq = []string{class}
			case 0:
				acq = facts.acquiresOf(p.Pkg, m)
			}
			for _, to := range acq {
				for _, h := range held {
					p.runner.lockAcc.record(h, to, p.Mod.Fset.Position(m.Pos()))
				}
			}
		}
		return true
	})
}

const (
	lockAcquire = 1
	lockRelease = 2
)

// lockOp classifies call as a mutex acquisition/release and resolves the
// mutex class it operates on ("" when the receiver is not a trackable
// mutex: locals, map entries, interface values).
func lockOp(pkg *Package, call *ast.CallExpr) (string, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = lockAcquire
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return "", 0
	}
	class := mutexClass(pkg, sel.X)
	if class == "" {
		return "", 0
	}
	return class, op
}

// mutexClass names the mutex a lock expression denotes: a struct field
// ("pkg/path.Struct.field") or a package-level var ("pkg/path.var").
// Instance identity is deliberately erased — the analysis reasons about
// classes, which is what acquisition ordering is defined over.
func mutexClass(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		selInfo, ok := pkg.Info.Selections[e]
		if !ok {
			return ""
		}
		fv, ok := selInfo.Obj().(*types.Var)
		if !ok || !fv.IsField() || !isMutexType(fv.Type()) {
			return ""
		}
		named := derefNamed(selInfo.Recv())
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return classPrefix(named) + "." + fv.Name()
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil || !isMutexType(v.Type()) {
			return ""
		}
		if v.Parent() != v.Pkg().Scope() {
			return "" // local mutex: no class identity
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// classPrefix is the class-name prefix for a struct's mutex fields:
// "pkg/path.Struct".
func classPrefix(named *types.Named) string {
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// shortClass trims the module path off a class name for messages.
func shortClass(p *Pass, class string) string {
	return strings.TrimPrefix(strings.TrimPrefix(class, p.Mod.Path+"/"), "internal/")
}

func isMutexType(t types.Type) bool {
	named := derefNamed(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// methodEntryClasses returns the mutex classes assumed held at entry:
// every receiver mutex for methods following the *Locked naming
// convention, nothing otherwise.
func methodEntryClasses(pkg *Package, fd *ast.FuncDecl) []string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || !strings.HasSuffix(fd.Name.Name, "Locked") {
		return nil
	}
	named := derefNamed(pkg.Info.TypeOf(fd.Recv.List[0].Type))
	if named == nil {
		return nil
	}
	return structMutexClasses(named)
}

// structMutexClasses lists the mutex classes declared as fields of named,
// sorted.
func structMutexClasses(named *types.Named) []string {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); isMutexType(f.Type()) {
			out = append(out, classPrefix(named)+"."+f.Name())
		}
	}
	sort.Strings(out)
	return out
}

// sortedBoolKeys returns the true-keys of a set in sorted order.
func sortedBoolKeys(set map[string]bool) []string {
	var keys []string
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// isSyncInternalType reports whether a field's own type provides its
// synchronization (atomics, WaitGroup, Once, …).
func isSyncInternalType(t types.Type) bool {
	named := derefNamed(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// finishLockOrder runs after every package's pass: it assembles the
// module-wide acquisition graph and reports each cycle once.
func finishLockOrder(p *FinishPass) {
	acc := &p.runner.lockAcc
	acc.mu.Lock()
	edges := make([]lockEdge, 0, len(acc.edges))
	for e := range acc.edges {
		edges = append(edges, e)
	}
	positions := maps.Clone(acc.edges)
	acc.mu.Unlock()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	adj := make(map[string][]string)
	var nodes []string
	seen := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		for _, n := range []string{e.from, e.to} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)

	const (
		colorNew = iota
		colorActive
		colorDone
	)
	color := make(map[string]int)
	var stack []string
	reported := make(map[string]bool)

	var visit func(n string)
	visit = func(n string) {
		color[n] = colorActive
		stack = append(stack, n)
		for _, succ := range adj[n] {
			switch color[succ] {
			case colorActive:
				// Extract the cycle from the DFS stack.
				i := len(stack) - 1
				for i >= 0 && stack[i] != succ {
					i--
				}
				cycle := append([]string(nil), stack[i:]...)
				reportCycle(p, positions, cycle, reported)
			case colorNew:
				visit(succ)
			case colorDone:
				// Fully explored: nothing new on this path.
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = colorDone
	}
	for _, n := range nodes {
		if color[n] == colorNew {
			visit(n)
		}
	}
}

// reportCycle canonicalizes (rotate so the smallest class leads), dedupes,
// and reports one lock-order cycle.
func reportCycle(p *FinishPass, positions map[lockEdge]token.Position, cycle []string, reported map[string]bool) {
	min := 0
	for i, c := range cycle {
		if c < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	key := strings.Join(rotated, " -> ")
	if reported[key] {
		return
	}
	reported[key] = true

	chain := make([]string, 0, len(rotated)+1)
	for _, c := range rotated {
		chain = append(chain, shortFinishClass(p, c))
	}
	chain = append(chain, shortFinishClass(p, rotated[0]))
	pos := positions[lockEdge{from: rotated[0], to: rotated[1%len(rotated)]}]
	p.reportAt(pos, "lock-order cycle: %s — goroutines taking these locks in different orders can deadlock; pick one acquisition order", strings.Join(chain, " -> "))
}

func shortFinishClass(p *FinishPass, class string) string {
	return strings.TrimPrefix(strings.TrimPrefix(class, p.Mod.Path+"/"), "internal/")
}

// reportAt is Reportf for a pre-resolved position (edge positions are
// recorded as token.Position because they cross FileSets' goroutines).
func (p *FinishPass) reportAt(pos token.Position, format string, args ...any) {
	if p.runner.suppressed(p.analyzer.Name, pos) {
		return
	}
	p.findings = append(p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}
