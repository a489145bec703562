package analysis

import "go/ast"

// This file computes the per-function lock summaries lockorder consumes,
// by bottom-up fixpoint over the call graph in callgraph.go: the set of
// mutex classes a function may acquire, transitively through calls,
// goroutine spawns, and closures it builds. lockorder turns them into
// acquisition-order edges at call sites that hold a lock.
//
// Summary domains are finite sets, updates are monotone unions, so the
// fixpoint terminates; the deterministic node order makes the result —
// and everything derived from it — byte-identical across runs.

// lockFacts is the module-wide lock model.
type lockFacts struct {
	g *callGraph
	// acquires maps a call-graph node to the mutex classes it may
	// (transitively) acquire.
	acquires map[*cgNode]map[string]bool
}

// acquiresOf returns the classes a call expression may acquire in its
// callees (union over the interface fan-out), sorted.
func (lf *lockFacts) acquiresOf(pkg *Package, call *ast.CallExpr) []string {
	var set map[string]bool
	for _, callee := range lf.g.calleesOf(pkg, call) {
		//simlint:ordered -- set union; the result is sorted before return
		for c := range lf.acquires[callee] {
			if set == nil {
				set = make(map[string]bool)
			}
			set[c] = true
		}
	}
	if set == nil {
		return nil
	}
	return sortedBoolKeys(set)
}

// lockModel builds, once per module, the acquisition summaries over the
// call graph.
func (r *Runner) lockModel(mod *Module) *lockFacts {
	r.lockOnce.Do(func() {
		g := r.callGraph(mod)
		facts := &lockFacts{g: g, acquires: make(map[*cgNode]map[string]bool)}

		// Direct acquisitions: Lock/RLock calls in each node's own body
		// (nested literals excluded — they are their own nodes).
		for _, n := range g.nodes {
			set := make(map[string]bool)
			walkShallow(n.body, func(m ast.Node) {
				if call, ok := m.(*ast.CallExpr); ok {
					if class, op := lockOp(n.pkg, call); op == lockAcquire {
						set[class] = true
					}
				}
			})
			if len(set) > 0 {
				facts.acquires[n] = set
			}
		}

		// Transitive closure over call and closure edges. Calls launched
		// by a go statement are included deliberately: a goroutine the
		// function launches can acquire the class while the caller still
		// holds its own locks, so the summary over-approximates.
		// Self-edges (recursion) are harmless unions.
		g.fixpoint(func(n *cgNode) bool {
			changed := false
			for _, callee := range n.out {
				sub := facts.acquires[callee]
				if len(sub) == 0 {
					continue
				}
				set := facts.acquires[n]
				if set == nil {
					set = make(map[string]bool)
					facts.acquires[n] = set
				}
				for _, c := range sortedBoolKeys(sub) {
					if !set[c] {
						set[c] = true
						changed = true
					}
				}
			}
			return changed
		})

		r.locks = facts
	})
	return r.locks
}

// walkShallow visits every node of body except nested function literals.
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
