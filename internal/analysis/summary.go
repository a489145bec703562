package analysis

import (
	"go/ast"
	"go/types"
)

// This file computes the per-function summaries the interprocedural
// analyzers consume, by bottom-up fixpoint over the call graph in
// callgraph.go:
//
//   - lock summaries: the set of mutex classes a function may acquire,
//     transitively through calls, goroutine spawns, and closures it
//     builds. lockorder uses them for acquisition-order edges, for the
//     callee-reacquisition deadlock check, and for the lock-held-across-
//     spawn check.
//   - guarded fields: a struct field written at least once while a mutex
//     of the same struct is provably held is treated as guarded by it
//     (the cheapest sound-enough guard inference for this codebase's
//     mu-plus-fields style).
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
	// guarded maps a struct field to the mutex class guarding it.
	guarded map[*types.Var]string
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

// nodeAcquires returns the classes node may acquire, sorted.
func (lf *lockFacts) nodeAcquires(n *cgNode) []string {
	if n == nil || len(lf.acquires[n]) == 0 {
		return nil
	}
	return sortedBoolKeys(lf.acquires[n])
}

// lockModel builds, once per module, the acquisition summaries and the
// guarded-field map over the call graph.
func (r *Runner) lockModel(mod *Module) *lockFacts {
	r.lockOnce.Do(func() {
		g := r.callGraph(mod)
		facts := &lockFacts{
			g:        g,
			acquires: make(map[*cgNode]map[string]bool),
			guarded:  make(map[*types.Var]string),
		}

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

		// Transitive closure over call, spawn, and closure edges. Spawn
		// edges are included deliberately: a goroutine the function
		// launches can acquire the class concurrently, which is exactly
		// what the ordering and held-across-spawn checks reason about.
		// Self-edges (recursion) are harmless unions.
		g.fixpoint(func(n *cgNode) bool {
			changed := false
			for _, e := range n.out {
				sub := facts.acquires[e.callee]
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

		// Guarded fields: dataflow over each method of a mutex-bearing
		// struct, recording fields written while a receiver mutex is
		// provably held.
		for _, n := range g.nodes {
			if n.decl == nil {
				continue
			}
			recv := receiverStruct(n.pkg, n.decl)
			if recv == nil || len(structMutexClasses(recv)) == 0 {
				continue
			}
			deriveGuards(n.pkg, n.decl, recv, facts)
		}
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
