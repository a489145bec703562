package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerDeterTaint tracks nondeterminism the way it actually travels:
// as data. Three taint kinds are sourced —
//
//   - wall: time.Now / time.Since / time.Until
//   - rand: any call into math/rand or math/rand/v2
//   - maporder: the iterator sources maps.Keys / maps.Values (range-based
//     map-order dependence is the determinism analyzer's job; the iterator
//     form slips past a range-statement check)
//
// — and propagated interprocedurally: through assignments and expressions
// inside a function, through calls via per-function summaries (taint of a
// callee's returns, parameters that flow to returns), through struct
// fields and package variables written with tainted values anywhere in
// the module, and into closures via their own call-graph nodes.
//
// A finding is reported only where taint reaches a determinism-sensitive
// sink:
//
//   - seed/identity derivation: arguments to xrand.Hash*/xrand.New and to
//     crypto hash inputs (sha256.Sum256 and friends, hash.Hash.Write) —
//     the repo's cache keys, seeds and replacement decisions all derive
//     from these;
//   - stats accumulation: assignments into fields of *Stats structs;
//   - sink parameters: a parameter that (transitively) flows into one of
//     the above inside its function makes every call site a sink too —
//     campaign.Key becomes a sink automatically.
//
// Because only source→sink *flows* are findings, reporting-only wall
// reads (progress ETA, the run status's per-cell wall time) are proven safe
// and need no directive — the syntactic time.Now check this replaces
// demanded one at every such site. Direct calls into math/rand are still
// reported unconditionally: simulator randomness must flow through
// explicitly seeded internal/xrand generators, and there is no
// reporting-only excuse for ambient randomness. JSON output is
// deliberately NOT a wall sink: the run status carries each cell's wall
// time, and the exports the byte-identity tests compare leave it out.
var AnalyzerDeterTaint = &Analyzer{
	Name: "detertaint",
	Doc:  "track wall-clock, math/rand, and map-order taint through calls, fields, and closures into key/ID/stats sinks",
	Run:  runDeterTaint,
}

// taintSet is a bitmask of taint kinds.
type taintSet uint8

const (
	taintWall taintSet = 1 << iota
	taintRand
	taintMaporder

	taintAll = taintWall | taintRand | taintMaporder
)

// describe renders the kinds present in t for messages.
func (t taintSet) describe() string {
	var parts []string
	if t&taintWall != 0 {
		parts = append(parts, "the wall clock (time.Now)")
	}
	if t&taintRand != 0 {
		parts = append(parts, "math/rand")
	}
	if t&taintMaporder != 0 {
		parts = append(parts, "map iteration order")
	}
	return strings.Join(parts, " and ")
}

// taintVal is the dataflow value: the taint kinds an expression may
// carry, plus a bitmask of the enclosing function's parameters it may
// derive from (for building call summaries; parameters beyond 32 are
// untracked).
type taintVal struct {
	k taintSet
	p uint32
}

func (v taintVal) union(o taintVal) taintVal { return taintVal{k: v.k | o.k, p: v.p | o.p} }

// taintFacts is the module-wide taint model, built bottom-up over the
// call graph.
type taintFacts struct {
	g *callGraph
	// ret summarizes a function's returns: taint generated inside it, and
	// which of its parameters flow to a result.
	ret map[*cgNode]taintVal
	// sinkParams marks, per parameter, the taint kinds that parameter
	// feeds into a sink inside the function (directly or transitively).
	sinkParams map[*cgNode][]taintSet
	// fields carries taint through struct fields and package-level vars
	// assigned tainted values anywhere in the module.
	fields map[*types.Var]taintSet
}

// taintModel builds the module taint summaries once per Runner.
func (r *Runner) taintModel(mod *Module) *taintFacts {
	r.taintOnce.Do(func() {
		tf := &taintFacts{
			g:          r.callGraph(mod),
			ret:        make(map[*cgNode]taintVal),
			sinkParams: make(map[*cgNode][]taintSet),
			fields:     make(map[*types.Var]taintSet),
		}
		tf.g.fixpoint(tf.updateNode)
		r.taints = tf
	})
	return r.taints
}

// updateNode recomputes one function's contributions to the global model
// (return summary, sink parameters, field taint) and reports whether
// anything grew.
func (tf *taintFacts) updateNode(n *cgNode) bool {
	env := tf.localEnv(n)
	changed := false

	walkShallow(n.body, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.ReturnStmt:
			for _, e := range m.Results {
				v := tf.exprTaint(n, env, e)
				old := tf.ret[n]
				merged := old.union(v)
				if merged != old {
					tf.ret[n] = merged
					changed = true
				}
			}
		case *ast.AssignStmt:
			if tf.recordFieldWrites(n, env, m) {
				changed = true
			}
		case *ast.CompositeLit:
			if tf.recordCompositeWrites(n, env, m) {
				changed = true
			}
		case *ast.CallExpr:
			if tf.recordSinkParams(n, env, m) {
				changed = true
			}
		}
	})
	return changed
}

// localEnv computes the (flow-insensitive) taint of each local variable
// of n's body under the current global facts, iterating to a fixpoint.
// Parameters are seeded with their param bit.
func (tf *taintFacts) localEnv(n *cgNode) map[*types.Var]taintVal {
	env := make(map[*types.Var]taintVal)
	params := paramVars(n)
	for i, pv := range params {
		if i < 32 {
			env[pv] = taintVal{p: 1 << i}
		}
	}
	for changed := true; changed; {
		changed = false
		merge := func(v *types.Var, val taintVal) {
			if v == nil {
				return
			}
			old := env[v]
			m := old.union(val)
			if m != old {
				env[v] = m
				changed = true
			}
		}
		walkShallow(n.body, func(m ast.Node) {
			switch m := m.(type) {
			case *ast.RangeStmt:
				t := n.pkg.Info.TypeOf(m.X)
				if t == nil {
					return
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return
				}
				for _, bind := range []ast.Expr{m.Key, m.Value} {
					if id, ok := bind.(*ast.Ident); ok && id.Name != "_" {
						merge(localVar(n.pkg, id), taintVal{k: taintMaporder})
					}
				}
			case *ast.AssignStmt:
				if len(m.Lhs) == len(m.Rhs) {
					for i, lhs := range m.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							merge(localVar(n.pkg, id), tf.exprTaint(n, env, m.Rhs[i]))
						}
					}
				} else if len(m.Rhs) == 1 {
					// Tuple assignment: every LHS gets the call's taint.
					v := tf.exprTaint(n, env, m.Rhs[0])
					for _, lhs := range m.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							merge(localVar(n.pkg, id), v)
						}
					}
				}
			}
		})
	}
	return env
}

// exprTaint evaluates the taint an expression may carry under env.
func (tf *taintFacts) exprTaint(n *cgNode, env map[*types.Var]taintVal, e ast.Expr) taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := n.pkg.Info.Uses[e].(*types.Var); ok {
			if val, ok := env[v]; ok {
				return val
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return taintVal{k: tf.fields[v]}
			}
		}
		return taintVal{}
	case *ast.SelectorExpr:
		if fv := selectedField(n.pkg, e); fv != nil {
			return tf.exprTaint(n, env, e.X).union(taintVal{k: tf.fields[fv]})
		}
		if v, ok := n.pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return taintVal{k: tf.fields[v]} // pkgname.Var
		}
		return tf.exprTaint(n, env, e.X)
	case *ast.CallExpr:
		return tf.callTaint(n, env, e)
	case *ast.ParenExpr:
		return tf.exprTaint(n, env, e.X)
	case *ast.StarExpr:
		return tf.exprTaint(n, env, e.X)
	case *ast.UnaryExpr:
		return tf.exprTaint(n, env, e.X)
	case *ast.BinaryExpr:
		return tf.exprTaint(n, env, e.X).union(tf.exprTaint(n, env, e.Y))
	case *ast.IndexExpr:
		return tf.exprTaint(n, env, e.X).union(tf.exprTaint(n, env, e.Index))
	case *ast.SliceExpr:
		return tf.exprTaint(n, env, e.X)
	case *ast.TypeAssertExpr:
		return tf.exprTaint(n, env, e.X)
	case *ast.CompositeLit:
		var out taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out = out.union(tf.exprTaint(n, env, kv.Value))
			} else {
				out = out.union(tf.exprTaint(n, env, el))
			}
		}
		return out
	}
	return taintVal{}
}

// callTaint evaluates the taint of a call's results: sources, laundering
// sorts, module summaries, and conservative propagation through external
// functions (a stdlib call's result is as tainted as its arguments).
func (tf *taintFacts) callTaint(n *cgNode, env map[*types.Var]taintVal, call *ast.CallExpr) taintVal {
	argUnion := func() taintVal {
		var out taintVal
		for _, a := range call.Args {
			out = out.union(tf.exprTaint(n, env, a))
		}
		return out
	}
	if fn := calleeFunc(n.pkg, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				return taintVal{k: taintWall}
			}
		case "math/rand", "math/rand/v2":
			return argUnion().union(taintVal{k: taintRand})
		case "maps":
			switch fn.Name() {
			case "Keys", "Values":
				return argUnion().union(taintVal{k: taintMaporder})
			}
		}
	}
	if isSortingCall(n.pkg, call) {
		// Sorting launders map-iteration order: slices.Sorted(maps.Keys(m))
		// is THE blessed idiom.
		v := argUnion()
		v.k &^= taintMaporder
		return v
	}
	if callees := tf.g.calleesOf(n.pkg, call); len(callees) > 0 {
		var out taintVal
		for _, callee := range callees {
			sum := tf.ret[callee]
			out.k |= sum.k
			// A parameter flowing to the callee's result carries the
			// argument's taint back out.
			for i, a := range call.Args {
				if i < 32 && sum.p&(1<<i) != 0 {
					out = out.union(tf.exprTaint(n, env, a))
				}
			}
		}
		// Method calls: the receiver's taint also flows (conservatively).
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			out = out.union(tf.exprTaint(n, env, sel.X))
		}
		return out
	}
	// External (stdlib) call: results as tainted as the arguments.
	out := argUnion()
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		out = out.union(tf.exprTaint(n, env, sel.X))
	}
	return out
}

// paramVars returns the parameter variables of a node in order (declared
// functions and literals alike).
func paramVars(n *cgNode) []*types.Var {
	var ft *ast.FuncType
	switch {
	case n.decl != nil:
		ft = n.decl.Type
	case n.lit != nil:
		ft = n.lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := n.pkg.Info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// localVar resolves an assignment target to the variable it names (uses
// and short-variable definitions both count).
func localVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// recordFieldWrites merges RHS taint into the global field-taint map for
// assignments whose target is a struct field or package-level var.
func (tf *taintFacts) recordFieldWrites(n *cgNode, env map[*types.Var]taintVal, as *ast.AssignStmt) bool {
	changed := false
	write := func(v *types.Var, val taintVal) {
		if v == nil || val.k == 0 {
			return
		}
		if tf.fields[v]|val.k != tf.fields[v] {
			tf.fields[v] |= val.k
			changed = true
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		val := tf.exprTaint(n, env, as.Rhs[i])
		if fv := selectedField(n.pkg, sel); fv != nil {
			write(fv, val)
		} else if v, ok := n.pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			write(v, val)
		}
	}
	return changed
}

// recordCompositeWrites taints struct fields initialized from tainted
// expressions in composite literals (Sink{base: time.Now()}).
func (tf *taintFacts) recordCompositeWrites(n *cgNode, env map[*types.Var]taintVal, cl *ast.CompositeLit) bool {
	st, ok := compositeStruct(n.pkg, cl)
	if !ok {
		return false
	}
	changed := false
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		val := tf.exprTaint(n, env, kv.Value)
		if val.k == 0 {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if fv.Name() == key.Name && tf.fields[fv]|val.k != tf.fields[fv] {
				tf.fields[fv] |= val.k
				changed = true
			}
		}
	}
	return changed
}

// compositeStruct resolves a composite literal to its struct type.
func compositeStruct(pkg *Package, cl *ast.CompositeLit) (*types.Struct, bool) {
	t := pkg.Info.TypeOf(cl)
	if t == nil {
		return nil, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// recordSinkParams notes which of n's parameters flow into a sink at this
// call site, so the sink propagates to n's callers.
func (tf *taintFacts) recordSinkParams(n *cgNode, env map[*types.Var]taintVal, call *ast.CallExpr) bool {
	sens := tf.callSinkSensitivities(n.pkg, call)
	if sens == nil {
		return false
	}
	changed := false
	nparams := len(paramVars(n))
	for ai, a := range call.Args {
		s := sens(ai)
		if s == 0 {
			continue
		}
		v := tf.exprTaint(n, env, a)
		for pi := 0; pi < nparams && pi < 32; pi++ {
			if v.p&(1<<pi) == 0 {
				continue
			}
			sp := tf.sinkParams[n]
			if sp == nil {
				sp = make([]taintSet, nparams)
				tf.sinkParams[n] = sp
			}
			if sp[pi]|s != sp[pi] {
				sp[pi] |= s
				changed = true
			}
		}
	}
	return changed
}

// callSinkSensitivities classifies a call as a sink: it returns a
// per-argument sensitivity function, or nil when the call is no sink.
// Direct sinks are xrand seed/ID derivations and crypto hash inputs;
// module calls whose callee has sink parameters are transitive sinks.
func (tf *taintFacts) callSinkSensitivities(pkg *Package, call *ast.CallExpr) func(argIdx int) taintSet {
	if desc, sens := directSink(pkg, call); desc != "" {
		return func(int) taintSet { return sens }
	}
	var perParam []taintSet
	for _, callee := range tf.g.calleesOf(pkg, call) {
		for i, s := range tf.sinkParams[callee] {
			for len(perParam) <= i {
				perParam = append(perParam, 0)
			}
			perParam[i] |= s
		}
	}
	if perParam == nil {
		return nil
	}
	return func(i int) taintSet {
		if i < len(perParam) {
			return perParam[i]
		}
		return 0
	}
}

// directSink classifies a call as a direct sink, returning a description
// for messages and the taint kinds it is sensitive to.
func directSink(pkg *Package, call *ast.CallExpr) (string, taintSet) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", 0
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	switch {
	case isXrandPath(path) && (strings.HasPrefix(name, "Hash") || name == "New"):
		return "the xrand." + name + " seed/ID derivation", taintAll
	case strings.HasPrefix(path, "crypto/") && strings.HasPrefix(name, "Sum"):
		return "a " + fn.Pkg().Name() + "." + name + " hash input", taintAll
	case (path == "hash" || strings.HasPrefix(path, "crypto/") || strings.HasPrefix(path, "hash/")) && name == "Write":
		return "a hash input", taintAll
	}
	return "", 0
}

// isXrandPath reports whether a package path is the module's blessed
// seeded-randomness package (matched by suffix so golden testdata modules
// qualify too).
func isXrandPath(path string) bool {
	return path == "internal/xrand" || strings.HasSuffix(path, "/internal/xrand") || strings.HasSuffix(path, "/xrand")
}

// statsSinkField reports whether an assignment target is a field of a
// *Stats struct (stats accumulation must stay deterministic so serial and
// parallel runs export identical numbers). Map-order taint is exempt:
// commutative accumulation over a map is order-independent.
func statsSinkField(pkg *Package, lhs ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selInfo, ok := pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return "", false
	}
	named := derefNamed(selInfo.Recv())
	if named == nil || !strings.HasSuffix(named.Obj().Name(), "Stats") {
		return "", false
	}
	return named.Obj().Name() + "." + sel.Sel.Name, true
}

// selectedField resolves a selector to the struct field it reads or
// writes, or nil.
func selectedField(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	selInfo, ok := pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return nil
	}
	fv, _ := selInfo.Obj().(*types.Var)
	return fv
}

// callName renders a short display name for a call site.
func callName(call *ast.CallExpr) string {
	return exprString(call.Fun)
}

// runDeterTaint is the reporting pass: it walks every function of the
// package with its local taint environment and reports source→sink flows
// plus direct math/rand calls.
func runDeterTaint(p *Pass) {
	rel := p.Pkg.Rel()
	if !hasPathPrefix(rel, "internal") && !hasPathPrefix(rel, "sim") {
		return
	}
	if isXrandPath(p.Pkg.Types.Path()) {
		return // the blessed wrapper is allowed to be about randomness
	}
	tf := p.runner.taintModel(p.Mod)
	for _, n := range tf.g.nodes {
		if n.pkg != p.Pkg {
			continue
		}
		env := tf.localEnv(n)
		sorted := statementSortedVars(n)
		walkShallow(n.body, func(m ast.Node) {
			switch m := m.(type) {
			case *ast.CallExpr:
				reportCallFlows(p, tf, n, env, sorted, m)
			case *ast.AssignStmt:
				reportStatsFlows(p, tf, n, env, m)
			}
		})
	}
}

// reportCallFlows reports tainted arguments reaching sink calls, and
// direct calls into math/rand.
func reportCallFlows(p *Pass, tf *taintFacts, n *cgNode, env map[*types.Var]taintVal, sorted map[*types.Var]bool, call *ast.CallExpr) {
	if fn := calleeFunc(p.Pkg, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			p.Reportf(call.Pos(), "call into %s: simulator randomness must flow through explicitly seeded internal/xrand generators", fn.Pkg().Path())
			return
		}
	}
	desc, directSens := directSink(p.Pkg, call)
	var sens func(int) taintSet
	if desc != "" {
		sens = func(int) taintSet { return directSens }
	} else {
		sens = tf.callSinkSensitivities(p.Pkg, call)
		if sens == nil {
			return
		}
		desc = callName(call) + ", whose parameter feeds a key/ID/stats derivation"
	}
	for ai, a := range call.Args {
		s := sens(ai)
		if s == 0 {
			continue
		}
		v := tf.exprTaint(n, env, a)
		eff := v.k & s
		// A slice the function sorts at statement level has its iteration
		// order laundered even though the flow-insensitive env kept the bit.
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && eff == taintMaporder {
			if lv := localVar(p.Pkg, id); lv != nil && sorted[lv] {
				eff = 0
			}
		}
		if eff == 0 {
			continue
		}
		p.Reportf(a.Pos(), "value derived from %s reaches %s: byte-identical replay breaks; derive it from seeds or cycle counts (or annotate //simlint:allow detertaint -- <why this cannot affect results>)",
			eff.describe(), desc)
	}
}

// reportStatsFlows reports tainted values assigned into *Stats fields.
func reportStatsFlows(p *Pass, tf *taintFacts, n *cgNode, env map[*types.Var]taintVal, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		field, ok := statsSinkField(p.Pkg, lhs)
		if !ok {
			continue
		}
		eff := tf.exprTaint(n, env, as.Rhs[i]).k & (taintWall | taintRand)
		if eff == 0 {
			continue
		}
		p.Reportf(as.Pos(), "value derived from %s reaches stats accumulation field %s: serial and parallel runs would export different numbers; derive it from seeds or cycle counts (or annotate //simlint:allow detertaint -- <why this cannot affect results>)",
			eff.describe(), field)
	}
}

// statementSortedVars collects the local slice vars that appear as the
// first argument of a statement-level sorting call anywhere in the body.
func statementSortedVars(n *cgNode) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	walkShallow(n.body, func(m ast.Node) {
		es, ok := m.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || !isSortingCall(n.pkg, call) {
			return
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if v := localVar(n.pkg, id); v != nil {
				out[v] = true
			}
		}
	})
	return out
}
