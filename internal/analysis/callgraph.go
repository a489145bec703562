package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural substrate the v3 analyzers share: a
// module-wide call graph with one node per declared function and one per
// function literal, and a deterministic bottom-up fixpoint driver for
// computing per-function summaries over it.
//
// Edge kinds:
//
//   - call: a static call to a declared function or method. A call into
//     generic code (an instantiated method, or f[T](x)) links to the
//     generic declaration. Calls through an interface method fan out to
//     every module type whose method set implements the interface (a
//     sound over-approximation for code that never leaves the module).
//   - spawn: the call (or literal) is launched on a new goroutine by a
//     `go` statement. Spawn edges matter to the lock analyses: the callee
//     starts with an empty lock set regardless of what the spawner holds.
//   - closure: a function literal defined in the body. The literal's node
//     carries its own body; the closure edge records where it was built,
//     so summaries can flow from literal to enclosing function (a literal
//     that locks is assumed callable wherever it escapes).
//
// Determinism: nodes are ordered by source position and edges by call-site
// position, so every fixpoint over the graph visits in one fixed order and
// analyzer output is byte-identical across runs and worker counts.

// edgeKind classifies a call-graph edge.
type edgeKind uint8

const (
	edgeCall edgeKind = iota
	edgeSpawn
	edgeClosure
)

// cgNode is one function in the call graph: a declared function/method
// (Fn != nil) or a function literal (Lit != nil).
type cgNode struct {
	index int
	pkg   *Package
	fn    *types.Func   // nil for literals
	decl  *ast.FuncDecl // nil for literals
	lit   *ast.FuncLit  // nil for declared functions
	body  *ast.BlockStmt
	out   []*cgEdge // edges to callees, sorted by site position
	in    []*cgEdge // edges from callers
}

// name renders a short human-readable identity for messages and tests.
func (n *cgNode) name() string {
	if n.fn != nil {
		if recv := n.fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := derefNamed(recv.Type()); named != nil {
				return named.Obj().Name() + "." + n.fn.Name()
			}
		}
		return n.fn.Name()
	}
	return "func literal"
}

// cgEdge is one caller→callee relation observed at a call or go site.
type cgEdge struct {
	caller *cgNode
	callee *cgNode
	site   token.Pos
	kind   edgeKind
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

// nodeFor resolves a declared function to its node (nil if not in the
// module, e.g. stdlib).
func (g *callGraph) nodeFor(fn *types.Func) *cgNode { return g.byFn[fn] }

// litNode resolves a function literal to its node.
func (g *callGraph) litNode(l *ast.FuncLit) *cgNode { return g.byLit[l] }

// callees returns the (deduplicated, deterministic) callee nodes a call
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
				n := &cgNode{index: len(g.nodes), pkg: pkg, fn: fn, decl: fd, body: fd.Body}
				g.nodes = append(g.nodes, n)
				g.byFn[fn] = n
				ast.Inspect(fd.Body, func(m ast.Node) bool {
					if fl, ok := m.(*ast.FuncLit); ok {
						ln := &cgNode{index: len(g.nodes), pkg: pkg, lit: fl, body: fl.Body}
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
	for _, n := range g.nodes {
		sort.Slice(n.in, func(i, j int) bool {
			a, b := n.in[i], n.in[j]
			if a.caller.index != b.caller.index {
				return a.caller.index < b.caller.index
			}
			return a.site < b.site
		})
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

// addEdges records every call, spawn, and closure edge out of n's body.
func (g *callGraph) addEdges(n *cgNode) {
	var walk func(node ast.Node, inGo bool)
	link := func(callee *cgNode, site token.Pos, kind edgeKind) {
		e := &cgEdge{caller: n, callee: callee, site: site, kind: kind}
		n.out = append(n.out, e)
		callee.in = append(callee.in, e)
	}
	walk = func(node ast.Node, inGo bool) {
		ast.Inspect(node, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if ln := g.byLit[m]; ln != nil {
					kind := edgeClosure
					if inGo {
						kind = edgeSpawn
					}
					link(ln, m.Pos(), kind)
				}
				return false // the literal's body belongs to its own node
			case *ast.GoStmt:
				// The spawned call: its callee gets a spawn edge; argument
				// expressions evaluate on the spawner and are walked
				// normally.
				switch fun := ast.Unparen(m.Call.Fun).(type) {
				case *ast.FuncLit:
					if ln := g.byLit[fun]; ln != nil {
						link(ln, m.Pos(), edgeSpawn)
					}
				default:
					for _, callee := range g.calleesOf(n.pkg, m.Call) {
						link(callee, m.Pos(), edgeSpawn)
					}
				}
				for _, arg := range m.Call.Args {
					walk(arg, false)
				}
				if _, isLit := ast.Unparen(m.Call.Fun).(*ast.FuncLit); !isLit {
					walk(m.Call.Fun, false)
				}
				return false
			case *ast.CallExpr:
				for _, callee := range g.calleesOf(n.pkg, m) {
					link(callee, m.Pos(), edgeCall)
				}
				return true
			}
			return true
		})
	}
	walk(n.body, false)
	sort.Slice(n.out, func(i, j int) bool {
		a, b := n.out[i], n.out[j]
		if a.site != b.site {
			return a.site < b.site
		}
		return a.callee.index < b.callee.index
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

// reachable returns the set of nodes reachable from roots over call,
// spawn, and closure edges (closure edges count: a literal built inside a
// reachable function runs on its behalf).
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
		for _, e := range n.out {
			if !seen[e.callee] {
				seen[e.callee] = true
				stack = append(stack, e.callee)
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
