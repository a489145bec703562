package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural substrate the analyzers share: a
// module-wide call graph with one node per declared function and one per
// function literal, and a deterministic bottom-up fixpoint driver for
// computing per-function summaries over it.
//
// A node's out edges lead to:
//
//   - every callee of a static call to a declared function or method. A
//     call into generic code (an instantiated method, or f[T](x)) links to
//     the generic declaration. Calls through an interface method fan out
//     to every module type whose method set implements the interface (a
//     sound over-approximation for code that never leaves the module). A
//     call launched by a `go` statement is an edge like any other.
//   - every function literal defined in the body. The literal's node
//     carries its own body, so summaries flow from literal to enclosing
//     function (a literal that locks is assumed callable wherever it
//     escapes).
//
// Determinism: nodes and edges are in source order, so every fixpoint
// over the graph visits in one fixed order and analyzer output is
// byte-identical across runs and worker counts.

// cgNode is one function in the call graph: a declared function/method
// (fn != nil) or a function literal (lit != nil).
type cgNode struct {
	pkg  *Package
	fn   *types.Func   // nil for literals
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declared functions
	body *ast.BlockStmt
	out  []*cgNode // callees and literals, in source order
}

// callGraph is the module-wide graph plus its lookup indexes.
type callGraph struct {
	nodes []*cgNode
	byFn  map[*types.Func]*cgNode
	byLit map[*ast.FuncLit]*cgNode
	// implementers maps an interface method to the concrete module
	// methods a call through it can reach.
	implementers map[*types.Func][]*types.Func
}

// calleesOf returns the (deduplicated, deterministic) callee nodes a call
// expression can reach: the static callee, or every module implementer
// for an interface method.
func (g *callGraph) calleesOf(pkg *Package, call *ast.CallExpr) []*cgNode {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return nil
	}
	if n := g.byFn[fn]; n != nil {
		return []*cgNode{n}
	}
	var out []*cgNode
	for _, impl := range g.implementers[fn] {
		if n := g.byFn[impl]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// buildCallGraph walks every package of the module once. It is cached on
// the Runner (see Runner.callGraph) because several analyzers share it.
func buildCallGraph(mod *Module) *callGraph {
	g := &callGraph{
		byFn:         make(map[*types.Func]*cgNode),
		byLit:        make(map[*ast.FuncLit]*cgNode),
		implementers: make(map[*types.Func][]*types.Func),
	}

	// Pass 1: nodes for every declared function, then for every literal
	// (literals nest, so they are collected in source order too).
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &cgNode{pkg: pkg, fn: fn, decl: fd, body: fd.Body}
				g.nodes = append(g.nodes, n)
				g.byFn[fn] = n
				ast.Inspect(fd.Body, func(m ast.Node) bool {
					if fl, ok := m.(*ast.FuncLit); ok {
						ln := &cgNode{pkg: pkg, lit: fl, body: fl.Body}
						g.nodes = append(g.nodes, ln)
						g.byLit[fl] = ln
					}
					return true
				})
			}
		}
	}

	g.buildImplementers(mod)

	// Pass 2: edges. For each node, scan its body shallowly (stopping at
	// nested literals, which own their statements).
	for _, n := range g.nodes {
		g.addEdges(n)
	}
	return g
}

// buildImplementers indexes, for every interface method referenced in the
// module, the concrete module methods that implement it.
func (g *callGraph) buildImplementers(mod *Module) {
	// Collect the module's named types and interfaces deterministically.
	type namedDecl struct {
		pkg   *Package
		named *types.Named
	}
	var concrete []namedDecl
	var ifaces []*types.Named
	for _, pkg := range mod.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else {
				concrete = append(concrete, namedDecl{pkg: pkg, named: named})
			}
		}
	}
	for _, iface := range ifaces {
		it, ok := iface.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			for _, c := range concrete {
				for _, t := range []types.Type{c.named, types.NewPointer(c.named)} {
					if !types.Implements(t, it) {
						continue
					}
					obj, _, _ := types.LookupFieldOrMethod(t, true, im.Pkg(), im.Name())
					if m, ok := obj.(*types.Func); ok && g.byFn[m] != nil {
						g.implementers[im] = appendUniqueFunc(g.implementers[im], m)
					}
					break // pointer method set contains the value's; one lookup suffices
				}
			}
		}
	}
}

func appendUniqueFunc(fns []*types.Func, fn *types.Func) []*types.Func {
	for _, f := range fns {
		if f == fn {
			return fns
		}
	}
	return append(fns, fn)
}

// addEdges records every call and closure edge out of n's body.
func (g *callGraph) addEdges(n *cgNode) {
	ast.Inspect(n.body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if ln := g.byLit[m]; ln != nil {
				n.out = append(n.out, ln)
			}
			return false // the literal's body belongs to its own node
		case *ast.CallExpr:
			n.out = append(n.out, g.calleesOf(n.pkg, m)...)
		}
		return true
	})
}

// fixpoint sweeps update over every node (in deterministic index order)
// until a full sweep reports no change. update returns true when it grew
// the summary it maintains for the node; bottom-up summaries converge
// because summary domains are finite and monotone.
func (g *callGraph) fixpoint(update func(n *cgNode) bool) {
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			if update(n) {
				changed = true
			}
		}
	}
}

// reachable returns the set of nodes reachable from roots over call and
// closure edges (closure edges count: a literal built inside a reachable
// function runs on its behalf).
func (g *callGraph) reachable(roots []*cgNode) map[*cgNode]bool {
	seen := make(map[*cgNode]bool)
	var stack []*cgNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, callee := range n.out {
			if !seen[callee] {
				seen[callee] = true
				stack = append(stack, callee)
			}
		}
	}
	return seen
}

// callGraph returns the module call graph, built once per Runner.
func (r *Runner) callGraph(mod *Module) *callGraph {
	r.cgOnce.Do(func() { r.cg = buildCallGraph(mod) })
	return r.cg
}
