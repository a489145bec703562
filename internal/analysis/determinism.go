package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// AnalyzerDeterminism guards the simulator's bit-identical-replay
// contract: the same grid must produce byte-identical exports whether it
// runs serially, on the worker pool, or across processes.
//
// It flags map-order dependence: `for … range m` where m is a map,
// anywhere under internal/, sim/, or cmd/. Go randomizes map iteration
// order, so any such loop that feeds simulation state or user-visible
// output is a nondeterminism hazard. The analysis is flow-sensitive: a
// loop that only collects keys/values into local slices is allowed when,
// on every control path, each collected slice is sorted — by a direct
// sort.*/slices.* call or by a module helper that (transitively) sorts
// its argument — before its first order-sensitive use. Re-collecting
// into an already-sorted slice restarts the obligation. A range that
// binds neither key nor value (`for range m`) executes an identical body
// per element and is order-independent by construction, so it is always
// allowed. Anything else needs //simlint:ordered -- <justification>.
//
// Ambient-nondeterminism sources (time.Now, math/rand) are no longer
// flagged syntactically here: the detertaint analyzer tracks them
// interprocedurally and reports only flows that actually reach
// determinism-sensitive sinks (cache keys, seeds, stats), so
// reporting-only wall-clock reads need no directive at all.
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc:  "flag map-order-dependent iteration (flow-sensitively) in simulation and export paths",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	rel := p.Pkg.Rel()
	mapScope := hasPathPrefix(rel, "internal") || hasPathPrefix(rel, "sim") ||
		hasPathPrefix(rel, "cmd") || rel == ""
	if !mapScope {
		return
	}

	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrder(p, n.Body)
				}
			case *ast.FuncLit:
				checkMapOrder(p, n.Body)
			}
			return true
		})
	}
}

// detState is the sorted-fact lattice value for one tracked local slice.
type detState struct {
	st     uint8 // stPending or stSorted
	origin *ast.RangeStmt
}

const (
	stSorted  uint8 = 1 // collected from a map, then sorted: order-independent
	stPending uint8 = 2 // collected from a map, not yet sorted
)

// detFact maps tracked slice variables to their sorted-fact state; a
// variable that is absent is untracked (its content is map-order
// independent).
type detFact map[*types.Var]detState

// checkMapOrder runs the flow-sensitive map-iteration analysis over one
// function body (nested function literals are analyzed separately and
// skipped here).
func checkMapOrder(p *Pass, body *ast.BlockStmt) {
	type obligation struct {
		rng     *ast.RangeStmt
		targets []*types.Var
	}
	var obligations []obligation
	var direct []*ast.RangeStmt // map ranges that are not pure collect loops

	walkShallow(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := p.Pkg.Info.TypeOf(rng.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		if isBlankOrNil(rng.Key) && isBlankOrNil(rng.Value) {
			return // binds no per-element data: order-independent by construction
		}
		targets := collectTargets(p, rng)
		if targets == nil {
			direct = append(direct, rng)
			return
		}
		obligations = append(obligations, obligation{rng: rng, targets: targets})
	})

	for _, rng := range direct {
		p.Reportf(rng.Pos(),
			"range over map %s: iteration order is randomized; sort the keys first or annotate //simlint:ordered -- <why order is irrelevant>", exprString(rng.X))
	}
	if len(obligations) == 0 {
		return
	}

	tracked := make(map[*types.Var]bool)
	origins := make(map[*ast.RangeStmt][]*types.Var)
	for _, ob := range obligations {
		origins[ob.rng] = ob.targets
		for _, v := range ob.targets {
			tracked[v] = true
		}
	}

	g := buildCFG(body)
	if g == nil {
		// Unstructured control flow (goto): fall back to the syntactic
		// whole-function check — a sort call on the target anywhere after
		// the loop.
		for _, ob := range obligations {
			for _, v := range ob.targets {
				if !sortedSyntactically(p, body, ob.rng, v) {
					p.Reportf(ob.rng.Pos(),
						"range over map %s: iteration order is randomized; sort the keys first or annotate //simlint:ordered -- <why order is irrelevant>", exprString(ob.rng.X))
					break
				}
			}
		}
		return
	}

	flow := &detFlow{p: p, tracked: tracked, origins: origins}
	d := dataflow[detFact]{
		Bottom:   func() detFact { return nil },
		Entry:    func() detFact { return detFact{} },
		Join:     joinDetFacts,
		Equal:    func(a, b detFact) bool { return maps.Equal(a, b) },
		Transfer: flow.transfer,
	}
	in := d.forward(g)

	violated := make(map[*ast.RangeStmt]bool)
	for _, b := range g.blocks {
		f := in[b]
		for _, n := range b.nodes {
			flow.checkUses(n, f, violated)
			f = flow.transfer(n, f)
		}
	}
	bad := make([]*ast.RangeStmt, 0, len(violated))
	for rng := range violated {
		bad = append(bad, rng)
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].Pos() < bad[j].Pos() })
	for _, rng := range bad {
		p.Reportf(rng.Pos(),
			"range over map %s: iteration order is randomized and the collected slice is used on a path where it was not sorted; sort it first or annotate //simlint:ordered -- <why order is irrelevant>", exprString(rng.X))
	}
}

// joinDetFacts is the lattice join: the union of both maps, taking the
// higher state (pending beats sorted) and the earlier origin on ties.
func joinDetFacts(a, b detFact) detFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := maps.Clone(a)
	vars := sortedFactVars(b)
	for _, v := range vars {
		sb := b[v]
		sa, ok := out[v]
		if !ok || sb.st > sa.st {
			out[v] = sb
			continue
		}
		if sb.st == sa.st && sb.origin != nil && sa.origin != nil && sb.origin.Pos() < sa.origin.Pos() {
			out[v] = sb
		}
	}
	return out
}

// sortedFactVars returns the fact's tracked variables in declaration
// order, so every consumer iterates deterministically.
func sortedFactVars(f detFact) []*types.Var {
	vars := make([]*types.Var, 0, len(f))
	for v := range f {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	return vars
}

// detFlow is the transfer/use-check context of one function's analysis.
type detFlow struct {
	p       *Pass
	tracked map[*types.Var]bool
	origins map[*ast.RangeStmt][]*types.Var
}

// transfer applies one CFG node to the fact.
func (d *detFlow) transfer(n ast.Node, f detFact) detFact {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if targets, ok := d.origins[n]; ok {
			f = maps.Clone(f)
			if f == nil {
				f = detFact{}
			}
			for _, v := range targets {
				f[v] = detState{st: stPending, origin: n}
			}
		}
		return f

	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v := d.objOf(id)
			if v == nil || !d.tracked[v] {
				continue
			}
			if _, have := f[v]; !have {
				continue
			}
			if len(n.Lhs) == len(n.Rhs) && preservesOrderFact(d.p, n.Rhs[i], v) {
				continue // x = append(x, …) / x = x[a:b] keep the current fact
			}
			// Any other assignment replaces the collected value: the
			// obligation is discharged (the map-ordered data is gone).
			f = maps.Clone(f)
			delete(f, v)
		}
		return f

	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			return f
		}
		for _, v := range d.sortTargets(call) {
			if _, have := f[v]; have {
				f = maps.Clone(f)
				st := f[v]
				st.st = stSorted
				f[v] = st
			}
		}
		return f
	}
	return f
}

// preservesOrderFact reports whether assigning rhs to v keeps v's
// sorted-fact meaningful: appending to itself (still the same collected
// prefix) or re-slicing itself (order preserved).
func preservesOrderFact(p *Pass, rhs ast.Expr, v *types.Var) bool {
	switch rhs := rhs.(type) {
	case *ast.CallExpr:
		fn, ok := rhs.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || len(rhs.Args) == 0 {
			return false
		}
		if _, builtin := p.Pkg.Info.Uses[fn].(*types.Builtin); !builtin {
			return false
		}
		id, ok := rhs.Args[0].(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == v
	case *ast.SliceExpr:
		id, ok := rhs.X.(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == v
	}
	return false
}

// sortTargets resolves a call to the tracked variables it sorts: direct
// sort.*/slices.* calls, or module helpers that (transitively) sort one
// of their slice parameters.
func (d *detFlow) sortTargets(call *ast.CallExpr) []*types.Var {
	p := d.p
	if isSortingCall(p.Pkg, call) {
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if v, ok := p.Pkg.Info.Uses[id].(*types.Var); ok && d.tracked[v] {
				return []*types.Var{v}
			}
		}
		return nil
	}
	fn := calleeFunc(p.Pkg, call)
	if fn == nil {
		return nil
	}
	sorts := p.runner.sorterSummaries(p.Mod)[fn]
	if sorts == nil {
		return nil
	}
	var out []*types.Var
	for i, isSorter := range sorts {
		if !isSorter || i >= len(call.Args) {
			continue
		}
		if id, ok := call.Args[i].(*ast.Ident); ok {
			if v, ok := p.Pkg.Info.Uses[id].(*types.Var); ok && d.tracked[v] {
				out = append(out, v)
			}
		}
	}
	return out
}

// checkUses records a violation for every tracked-and-pending variable
// the node uses in an order-sensitive position.
func (d *detFlow) checkUses(n ast.Node, f detFact, violated map[*ast.RangeStmt]bool) {
	if len(f) == 0 {
		return
	}
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Only the range operand executes here; the body has its own
		// blocks and the key/value are definitions, not uses.
		d.scanExpr(n.X, f, violated)
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v := d.objOf(id); v != nil && d.tracked[v] && len(n.Lhs) == len(n.Rhs) {
					if d.scanSelfUpdate(n.Rhs[i], v, f, violated) {
						continue
					}
				}
			} else {
				d.scanExpr(lhs, f, violated) // t[i] = x, s.f = x: operand uses
			}
			if len(n.Lhs) == len(n.Rhs) {
				d.scanExpr(n.Rhs[i], f, violated)
			}
		}
		if len(n.Lhs) != len(n.Rhs) {
			for _, rhs := range n.Rhs {
				d.scanExpr(rhs, f, violated)
			}
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && len(d.sortTargets(call)) > 0 {
			return // the sorting call itself (including its closure) is exempt
		}
		d.scanExpr(n.X, f, violated)
	default:
		if nd, ok := n.(ast.Node); ok {
			d.scanNode(nd, f, violated)
		}
	}
}

// scanSelfUpdate handles `t = append(t, …)` / `t = t[a:b]`: the self
// reference is exempt, the remaining operands are scanned. Reports true
// when rhs was such a self-update.
func (d *detFlow) scanSelfUpdate(rhs ast.Expr, v *types.Var, f detFact, violated map[*ast.RangeStmt]bool) bool {
	if !preservesOrderFact(d.p, rhs, v) {
		return false
	}
	switch rhs := rhs.(type) {
	case *ast.CallExpr:
		for _, arg := range rhs.Args[1:] {
			d.scanExpr(arg, f, violated)
		}
	case *ast.SliceExpr:
		for _, e := range []ast.Expr{rhs.Low, rhs.High, rhs.Max} {
			if e != nil {
				d.scanExpr(e, f, violated)
			}
		}
	}
	return true
}

// scanNode walks a whole statement for order-sensitive uses.
func (d *detFlow) scanNode(n ast.Node, f detFact, violated map[*ast.RangeStmt]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if isLenCap(d.p, m) || len(d.sortTargets(m)) > 0 {
				return false // len/cap and sorting calls are order-insensitive
			}
		case *ast.Ident:
			d.identUse(m, f, violated)
		}
		return true
	})
}

// scanExpr is scanNode restricted to an expression operand.
func (d *detFlow) scanExpr(e ast.Expr, f detFact, violated map[*ast.RangeStmt]bool) {
	if e == nil {
		return
	}
	d.scanNode(e, f, violated)
}

// identUse records a violation if id refers to a tracked variable whose
// state is pending.
func (d *detFlow) identUse(id *ast.Ident, f detFact, violated map[*ast.RangeStmt]bool) {
	v, ok := d.p.Pkg.Info.Uses[id].(*types.Var)
	if !ok || !d.tracked[v] {
		return
	}
	if st, have := f[v]; have && st.st == stPending && st.origin != nil {
		violated[st.origin] = true
	}
}

func (d *detFlow) objOf(id *ast.Ident) *types.Var {
	if v, ok := d.p.Pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := d.p.Pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// isLenCap reports whether call is builtin len(x) or cap(x).
func isLenCap(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || (id.Name != "len" && id.Name != "cap") {
		return false
	}
	_, builtin := p.Pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// isSortingCall reports whether call invokes a sorting function from
// package sort or slices with the target as its first argument.
func isSortingCall(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable", "Sort":
			return true
		}
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	}
	return false
}

// calleeFunc resolves a call to the declared function object it
// statically invokes, or nil. Explicit instantiations (f[T](x)) are
// unwrapped, and a generic callee resolves to its origin, so calls into
// generic code meet the same *types.Func the call graph indexes.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, ok := fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// sorterSummaries computes, once per module, which slice parameters each
// module function definitely sorts — directly via sort.*/slices.*, or
// transitively by forwarding the parameter into another sorter. This is
// what lets the determinism analyzer accept the sorted-in-helper idiom
// (`collect; sortRecords(rows)`) without a //simlint:ordered directive.
func (r *Runner) sorterSummaries(mod *Module) map[*types.Func][]bool {
	r.sorterOnce.Do(func() {
		type fnDecl struct {
			pkg  *Package
			decl *ast.FuncDecl
			fn   *types.Func
		}
		var decls []fnDecl
		for _, pkg := range mod.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						decls = append(decls, fnDecl{pkg: pkg, decl: fd, fn: fn})
					}
				}
			}
		}
		sorters := make(map[*types.Func][]bool)
		paramsOf := func(d fnDecl) []*types.Var {
			sig := d.fn.Type().(*types.Signature)
			out := make([]*types.Var, sig.Params().Len())
			for i := 0; i < sig.Params().Len(); i++ {
				out[i] = sig.Params().At(i)
			}
			return out
		}
		for changed := true; changed; {
			changed = false
			for _, d := range decls {
				params := paramsOf(d)
				marks := sorters[d.fn]
				if marks == nil {
					marks = make([]bool, len(params))
				}
				ast.Inspect(d.decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sortedArgs := make(map[int]bool)
					if isSortingCall(d.pkg, call) {
						sortedArgs[0] = true
					} else if callee := calleeFunc(d.pkg, call); callee != nil {
						for i, is := range sorters[callee] {
							if is {
								sortedArgs[i] = true
							}
						}
					}
					for argIdx := 0; argIdx < len(call.Args); argIdx++ {
						if !sortedArgs[argIdx] {
							continue
						}
						id, ok := call.Args[argIdx].(*ast.Ident)
						if !ok {
							continue
						}
						obj, _ := d.pkg.Info.Uses[id].(*types.Var)
						if obj == nil {
							continue
						}
						for pi, pv := range params {
							if pv == obj && !marks[pi] {
								marks[pi] = true
								changed = true
							}
						}
					}
					return true
				})
				sorters[d.fn] = marks
			}
		}
		r.sorters = sorters
	})
	return r.sorters
}

// collectTargets returns the local slice variables a range loop purely
// collects into — its body holds only `x = append(x, …)` statements,
// optionally wrapped in else-less `if` filters, plus bare continues —
// or nil if the body does anything else. Targets come back in
// declaration order.
func collectTargets(p *Pass, rng *ast.RangeStmt) []*types.Var {
	set := make(map[*types.Var]bool)
	if !collectInto(p, rng.Body, set) || len(set) == 0 {
		return nil
	}
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

func collectInto(p *Pass, body *ast.BlockStmt, set map[*types.Var]bool) bool {
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			if s.Else != nil || s.Init != nil {
				return false
			}
			if !collectInto(p, s.Body, set) {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE || s.Label != nil {
				return false
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" || len(call.Args) < 2 {
				return false
			}
			first, ok := call.Args[0].(*ast.Ident)
			if !ok || first.Name != lhs.Name {
				return false
			}
			v, ok := p.Pkg.Info.Uses[lhs].(*types.Var)
			if !ok {
				return false
			}
			set[v] = true
		default:
			return false
		}
	}
	return true
}

// sortedSyntactically is the conservative fallback when no CFG is
// available: a sort.*/slices.* call (or sorter-helper call) naming v
// anywhere in the function after the range statement.
func sortedSyntactically(p *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sortsFirst := isSortingCall(p.Pkg, call)
		var summary []bool
		if !sortsFirst {
			if fn := calleeFunc(p.Pkg, call); fn != nil {
				summary = p.runner.sorterSummaries(p.Mod)[fn]
			}
		}
		for i, arg := range call.Args {
			id, ok := arg.(*ast.Ident)
			if !ok || p.Pkg.Info.Uses[id] != v {
				continue
			}
			if (sortsFirst && i == 0) || (i < len(summary) && summary[i]) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBlankOrNil reports whether a range binding is absent or the blank
// identifier.
func isBlankOrNil(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// exprString renders a short source form of simple expressions for
// messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	}
	return "expression"
}

// hasPathPrefix reports whether rel is under the given top-level path
// segment ("internal", "sim", "cmd").
func hasPathPrefix(rel, seg string) bool {
	return rel == seg || strings.HasPrefix(rel, seg+"/")
}
