package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerCycleMath targets the classic simulator bug classes of cycle
// arithmetic: uint64 values that silently wrap, and latencies held in
// types that silently truncate. Three rules:
//
//  1. A subtraction a-b of cycle/latency values (underlying uint64,
//     cycle-named type or operand — see isCycleName) must be dominated by
//     a provable a >= b guard. Without one, a single reordering bug turns
//     a small negative difference into ~1.8e19 cycles — which then feeds
//     a watchdog, an average, or a DRAM deadline and corrupts the run
//     silently. The proof is flow-sensitive within the function: facts
//     flow out of if/for conditions (including the early-exit negation
//     `if a < b { return }`), through && short-circuits, and through
//     simple copies (`base := m.cycleBase`); they are killed when either
//     side is reassigned. This also covers the wrap-comparison variant
//     (`a-b > threshold` is the same unguarded subtraction).
//  2. Cycle values must not cross signed↔unsigned conversions: int(cycle)
//     truncates and sign-flips past 2^63, and Cycle(signed) launders a
//     negative into an enormous cycle count. Constant operands fold at
//     compile time and are exempt.
//  3. Struct fields and function parameters/results whose names say they
//     hold cycle counts or latencies (isCycleName) must be uint64 —
//     directly or through a named type like arch.Cycle whose underlying
//     type is uint64. An int or int32 latency overflows or sign-flips
//     under the simulator's 500M-cycle budgets on 32-bit hosts and
//     converts implicitly in mixed expressions, which is exactly how
//     truncation bugs hide. Float aggregates are exempt.
//
// Subtractions with a constant subtrahend (`now - 1`) are not flagged:
// there is no variable to guard against, and the idiom is pervasive in
// ring/index math; rule 3 already pins the representation.
//
// The proof deliberately assumes guarded operands are not mutated by
// calls between guard and use (guard-then-subtract is an adjacent idiom
// in this codebase); a call that mutates its own guard operands would
// evade it, which is the usual precision/noise trade for a lint.
var AnalyzerCycleMath = &Analyzer{
	Name: "cyclemath",
	Doc:  "require uint64 cycle subtractions to be dominated by a provable a>=b guard, forbid signed conversions of cycle values, and require *Cycle(s)/*Lat(ency) fields and parameters to be uint64",
	Run:  runCycleMath,
}

func runCycleMath(p *Pass) {
	rel := p.Pkg.Rel()
	if !hasPathPrefix(rel, "internal") && !hasPathPrefix(rel, "sim") {
		return
	}
	w := &cmWalker{p: p}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				checkCycleFields(p, n.Fields, "field")
			case *ast.FuncDecl:
				checkCycleFields(p, n.Type.Params, "parameter")
				checkCycleFields(p, n.Type.Results, "result")
				if n.Body != nil {
					w.block(n.Body, cmEnv{})
				}
			case *ast.FuncLit:
				checkCycleFields(p, n.Type.Params, "parameter")
				checkCycleFields(p, n.Type.Results, "result")
			}
			return true
		})
	}
}

// checkCycleFields applies rule 3 to one field list.
func checkCycleFields(p *Pass, fl *ast.FieldList, kind string) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		t := p.Pkg.Info.TypeOf(field.Type)
		if t == nil || !isNonUint64Integer(t) {
			continue
		}
		for _, name := range field.Names {
			if isCycleName(name.Name) {
				p.Reportf(name.Pos(),
					"%s %s holds a cycle count or latency but is %s; make it uint64 (or arch.Cycle) to prevent silent truncation in latency math", kind, name.Name, t)
			}
		}
	}
}

// isCycleName reports whether a field/parameter name declares a cycle
// count or latency.
func isCycleName(name string) bool {
	for _, suffix := range [...]string{"Cycle", "Cycles", "Lat", "Latency"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	switch name {
	case "lat", "latency", "cycle", "cycles":
		return true
	}
	return false
}

// isNonUint64Integer reports whether t's underlying type is an integer
// kind other than uint64 — the truncation-prone latency representations.
// Float aggregates (average latency in fractional cycles), histograms, and
// other container types are deliberate representations, not truncation
// hazards, and are not flagged.
func isNonUint64Integer(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 && b.Kind() != types.Uint64 && b.Kind() != types.Uintptr
}

// cmEnv is the set of proved ordering facts at a program point, keyed
// "big\x00small" meaning big >= small (paths per pathKey).
type cmEnv map[string]bool

func cmFact(big, small string) string { return big + "\x00" + small }

func (env cmEnv) clone() cmEnv {
	out := make(cmEnv, len(env))
	//simlint:ordered -- set copy into another set; no order-dependent state
	for k := range env {
		out[k] = true
	}
	return out
}

// with returns env extended by facts (copy-on-write).
func (env cmEnv) with(facts []string) cmEnv {
	if len(facts) == 0 {
		return env
	}
	out := env.clone()
	for _, f := range facts {
		out[f] = true
	}
	return out
}

// intersect keeps only facts proved on both joining paths.
func (env cmEnv) intersect(other cmEnv) cmEnv {
	out := make(cmEnv)
	//simlint:ordered -- set intersection into another set; no order-dependent state
	for k := range env {
		if other[k] {
			out[k] = true
		}
	}
	return out
}

// kill removes facts mentioning path (or a selector under it).
func (env cmEnv) kill(path string) {
	if path == "" {
		return
	}
	//simlint:ordered -- deletes every matching fact from a set; the surviving set is the same in any iteration order
	for k := range env {
		big, small, _ := strings.Cut(k, "\x00")
		if cmPathTouches(big, path) || cmPathTouches(small, path) {
			delete(env, k)
		}
	}
}

// killSide removes facts where path sits on the given side only: side
// "big" after the value shrank (big>=small no longer provable), side
// "small" after it grew.
func (env cmEnv) killSide(path, side string) {
	if path == "" {
		return
	}
	//simlint:ordered -- deletes every matching fact from a set; the surviving set is the same in any iteration order
	for k := range env {
		big, small, _ := strings.Cut(k, "\x00")
		comp := big
		if side == "small" {
			comp = small
		}
		if cmPathTouches(comp, path) {
			delete(env, k)
		}
	}
}

func cmPathTouches(comp, path string) bool {
	return comp == path || strings.HasPrefix(comp, path+".")
}

// pathKey canonicalizes an ident/selector chain ("m.now") or an
// argument-less call on one ("m.Now()" — accessor methods like Now are
// stable between a guard and the subtraction it dominates, the same
// no-mutation-between-guard-and-use assumption the analyzer makes for
// fields); "" for anything else (index expressions, arithmetic, calls
// with arguments).
func pathKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := pathKey(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.CallExpr:
		if len(e.Args) == 0 {
			if f := pathKey(e.Fun); f != "" {
				return f + "()"
			}
		}
	}
	return ""
}

// factsFrom returns the ordering facts that hold when cond is true.
func factsFrom(cond ast.Expr) []string {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	x, y := pathKey(b.X), pathKey(b.Y)
	switch b.Op {
	case token.LAND:
		return append(factsFrom(b.X), factsFrom(b.Y)...)
	case token.GEQ, token.GTR:
		if x != "" && y != "" {
			return []string{cmFact(x, y)}
		}
	case token.LEQ, token.LSS:
		if x != "" && y != "" {
			return []string{cmFact(y, x)}
		}
	case token.EQL:
		if x != "" && y != "" {
			return []string{cmFact(x, y), cmFact(y, x)}
		}
	}
	return nil
}

// factsFromNeg returns the facts that hold when cond is false (the
// early-exit pattern: after `if a < b { return }`, a >= b holds).
func factsFromNeg(cond ast.Expr) []string {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	x, y := pathKey(b.X), pathKey(b.Y)
	switch b.Op {
	case token.LOR: // !(a||b) => !a && !b
		return append(factsFromNeg(b.X), factsFromNeg(b.Y)...)
	case token.LSS, token.LEQ: // !(a<b) => a>=b ; !(a<=b) => a>b
		if x != "" && y != "" {
			return []string{cmFact(x, y)}
		}
	case token.GTR, token.GEQ:
		if x != "" && y != "" {
			return []string{cmFact(y, x)}
		}
	case token.NEQ: // !(a!=b) => a==b
		if x != "" && y != "" {
			return []string{cmFact(x, y), cmFact(y, x)}
		}
	}
	return nil
}

// cmWalker is the per-package statement walker: it threads a fact
// environment through each function body and checks every subtraction
// and conversion it meets against the facts in scope.
type cmWalker struct {
	p *Pass
}

// block walks a statement list; reports whether control provably leaves
// the enclosing flow (return/branch/panic) so joins can drop that arm.
func (w *cmWalker) block(b *ast.BlockStmt, env cmEnv) (cmEnv, bool) {
	if b == nil {
		return env, false
	}
	return w.stmts(b.List, env)
}

func (w *cmWalker) stmts(list []ast.Stmt, env cmEnv) (cmEnv, bool) {
	for _, s := range list {
		var term bool
		env, term = w.stmt(s, env)
		if term {
			return env, true
		}
	}
	return env, false
}

func (w *cmWalker) stmt(s ast.Stmt, env cmEnv) (cmEnv, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, env)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := w.p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					return env, true
				}
			}
		}
		return env, false

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.expr(rhs, env)
		}
		for _, lhs := range s.Lhs {
			w.expr(lhs, env)
		}
		if s.Tok == token.SUB_ASSIGN && len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			w.checkSub(s.Lhs[0], s.Rhs[0], s.TokPos, env)
		}
		env = env.clone()
		for i, lhs := range s.Lhs {
			path := pathKey(lhs)
			if path == "" {
				continue
			}
			switch s.Tok {
			case token.ADD_ASSIGN: // x grew: x>=s survives, b>=x dies
				env.killSide(path, "small")
			case token.SUB_ASSIGN: // x shrank: b>=x survives, x>=s dies
				env.killSide(path, "big")
			case token.ASSIGN, token.DEFINE:
				env.kill(path)
				if len(s.Lhs) == len(s.Rhs) {
					if src := pathKey(s.Rhs[i]); src != "" && src != path {
						// Copy: the new name inherits the source's facts.
						// Inserted facts name `path` (!= src) on the copied
						// side, so they can never re-match the conditions:
						// the final set is order-independent even though the
						// range may or may not visit entries added mid-loop.
						//simlint:ordered -- inserts facts that cannot themselves match; resulting fact set is the same in any iteration order
						for k := range env {
							big, small, _ := strings.Cut(k, "\x00")
							if big == src {
								env[cmFact(path, small)] = true
							}
							if small == src {
								env[cmFact(big, path)] = true
							}
						}
						env[cmFact(path, src)] = true
						env[cmFact(src, path)] = true
					}
				}
			default:
				env.kill(path)
			}
		}
		return env, false

	case *ast.IncDecStmt:
		w.expr(s.X, env)
		env = env.clone()
		if s.Tok == token.INC {
			env.killSide(pathKey(s.X), "small")
		} else {
			env.killSide(pathKey(s.X), "big")
		}
		return env, false

	case *ast.IfStmt:
		if s.Init != nil {
			env, _ = w.stmt(s.Init, env)
		}
		w.expr(s.Cond, env)
		thenOut, thenTerm := w.block(s.Body, env.with(factsFrom(s.Cond)))
		elseEnv := env.with(factsFromNeg(s.Cond))
		elseOut, elseTerm := elseEnv, false
		if s.Else != nil {
			elseOut, elseTerm = w.stmt(s.Else, elseEnv)
		}
		switch {
		case thenTerm && elseTerm:
			return env, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return thenOut.intersect(elseOut), false
		}

	case *ast.BlockStmt:
		return w.stmts(s.List, env)

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, env)
		}
		return env, true

	case *ast.BranchStmt:
		return env, true

	case *ast.ForStmt:
		if s.Init != nil {
			env, _ = w.stmt(s.Init, env)
		}
		// Facts killed anywhere in the loop are unreliable on every
		// iteration but the first; drop them up front.
		loopEnv := env.clone()
		cmKillAssigned(loopEnv, s.Body)
		if s.Post != nil {
			cmKillAssigned(loopEnv, &ast.BlockStmt{List: []ast.Stmt{s.Post}})
		}
		if s.Cond != nil {
			w.expr(s.Cond, loopEnv)
		}
		w.block(s.Body, loopEnv.with(factsFrom(s.Cond)))
		if s.Post != nil {
			w.stmt(s.Post, loopEnv)
		}
		return loopEnv, false

	case *ast.RangeStmt:
		w.expr(s.X, env)
		loopEnv := env.clone()
		loopEnv.kill(pathKey(s.Key))
		loopEnv.kill(pathKey(s.Value))
		cmKillAssigned(loopEnv, s.Body)
		w.block(s.Body, loopEnv)
		return loopEnv, false

	case *ast.SwitchStmt:
		if s.Init != nil {
			env, _ = w.stmt(s.Init, env)
		}
		if s.Tag != nil {
			w.expr(s.Tag, env)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseEnv := env
			for _, e := range cc.List {
				w.expr(e, env)
			}
			if s.Tag == nil && len(cc.List) == 1 {
				caseEnv = env.with(factsFrom(cc.List[0]))
			}
			w.stmts(cc.Body, caseEnv)
		}
		out := env.clone()
		cmKillAssigned(out, s.Body)
		return out, false

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			env, _ = w.stmt(s.Init, env)
		}
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, env)
		}
		out := env.clone()
		cmKillAssigned(out, s.Body)
		return out, false

	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			commEnv := env
			if cc.Comm != nil {
				commEnv, _ = w.stmt(cc.Comm, env.clone())
			}
			w.stmts(cc.Body, commEnv)
		}
		out := env.clone()
		cmKillAssigned(out, s.Body)
		return out, false

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return env, false
		}
		env = env.clone()
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.expr(v, env)
			}
			for i, name := range vs.Names {
				env.kill(name.Name)
				if len(vs.Values) == len(vs.Names) {
					if src := pathKey(vs.Values[i]); src != "" {
						env[cmFact(name.Name, src)] = true
						env[cmFact(src, name.Name)] = true
					}
				}
			}
		}
		return env, false

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, env)

	case *ast.DeferStmt:
		w.expr(s.Call.Fun, cmEnv{})
		for _, a := range s.Call.Args {
			w.expr(a, env)
		}
		return env, false

	case *ast.GoStmt:
		w.expr(s.Call.Fun, cmEnv{})
		for _, a := range s.Call.Args {
			w.expr(a, env)
		}
		return env, false

	case *ast.SendStmt:
		w.expr(s.Chan, env)
		w.expr(s.Value, env)
		return env, false
	}
	return env, false
}

// cmKillAssigned deletes every fact whose operands any statement under
// body assigns, increments, or decrements.
func cmKillAssigned(env cmEnv, body ast.Node) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				env.kill(pathKey(lhs))
			}
		case *ast.IncDecStmt:
			env.kill(pathKey(n.X))
		case *ast.RangeStmt:
			env.kill(pathKey(n.Key))
			env.kill(pathKey(n.Value))
		}
		return true
	})
}

// expr checks every subtraction and conversion inside e against the
// facts in env, threading guard facts through && / || short-circuits.
// Function-literal bodies start from an empty environment: the literal
// may run long after the facts expire.
func (w *cmWalker) expr(e ast.Expr, env cmEnv) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			w.expr(e.X, env)
			w.expr(e.Y, env.with(factsFrom(e.X)))
		case token.LOR:
			w.expr(e.X, env)
			w.expr(e.Y, env.with(factsFromNeg(e.X)))
		case token.SUB:
			w.expr(e.X, env)
			w.expr(e.Y, env)
			w.checkSub(e.X, e.Y, e.OpPos, env)
		default:
			w.expr(e.X, env)
			w.expr(e.Y, env)
		}
	case *ast.ParenExpr:
		w.expr(e.X, env)
	case *ast.UnaryExpr:
		w.expr(e.X, env)
	case *ast.StarExpr:
		w.expr(e.X, env)
	case *ast.SelectorExpr:
		w.expr(e.X, env)
	case *ast.IndexExpr:
		w.expr(e.X, env)
		w.expr(e.Index, env)
	case *ast.IndexListExpr:
		w.expr(e.X, env)
		for _, idx := range e.Indices {
			w.expr(idx, env)
		}
	case *ast.SliceExpr:
		w.expr(e.X, env)
		w.expr(e.Low, env)
		w.expr(e.High, env)
		w.expr(e.Max, env)
	case *ast.TypeAssertExpr:
		w.expr(e.X, env)
	case *ast.KeyValueExpr:
		w.expr(e.Key, env)
		w.expr(e.Value, env)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, env)
		}
	case *ast.FuncLit:
		w.block(e.Body, cmEnv{})
	case *ast.CallExpr:
		w.checkConv(e)
		w.expr(e.Fun, env)
		for _, a := range e.Args {
			w.expr(a, env)
		}
	}
}

// checkSub reports x-y when both operands are uint64, at least one is
// cycle-typed or cycle-named, the subtrahend is not a constant, and no
// in-scope fact proves x >= y.
func (w *cmWalker) checkSub(x, y ast.Expr, pos token.Pos, env cmEnv) {
	info := w.p.Pkg.Info
	if !cmIsUint64(info.TypeOf(x)) || !cmIsUint64(info.TypeOf(y)) {
		return
	}
	if !cmIsCycleExpr(info, x) && !cmIsCycleExpr(info, y) {
		return
	}
	if tv, ok := info.Types[y]; ok && tv.Value != nil {
		return // constant subtrahend: nothing to guard against
	}
	if tv, ok := info.Types[x]; ok && tv.Value != nil {
		return // constant minuend folds with whatever guards exist
	}
	px, py := pathKey(x), pathKey(y)
	if px != "" && px == py {
		return // a - a
	}
	if px != "" && py != "" && env[cmFact(px, py)] {
		return // dominated by a proved px >= py
	}
	w.p.Reportf(pos,
		"uint64 cycle subtraction %s - %s is not dominated by a provable %s >= %s guard; if the order ever flips, unsigned wrap yields ~1.8e19 cycles — guard it, restructure as a comparison against the sum, or annotate //simlint:allow cyclemath -- <the invariant that orders them>",
		exprString(x), exprString(y), exprString(x), exprString(y))
}

// checkConv reports signed↔unsigned conversions of cycle values.
func (w *cmWalker) checkConv(call *ast.CallExpr) {
	info := w.p.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if atv, ok := info.Types[arg]; ok && atv.Value != nil {
		return // constant: folds (and the compiler rejects out-of-range)
	}
	dst, src := info.TypeOf(call), info.TypeOf(arg)
	if dst == nil || src == nil {
		return
	}
	switch {
	case cmIsSignedInt(dst) && cmIsUint64(src) && cmIsCycleExpr(info, arg):
		w.p.Reportf(call.Pos(),
			"cycle value %s converted to signed %s: truncates and sign-flips past 2^63; keep cycle math in uint64 (use float64 for ratios)",
			exprString(arg), types.TypeString(dst, shortQualifier))
	case cmIsUint64(dst) && cmIsCycleType(dst) && cmIsSignedInt(src):
		w.p.Reportf(call.Pos(),
			"signed %s converted to cycle type %s: a negative value wraps to ~1.8e19 cycles; derive cycle values from unsigned sources",
			types.TypeString(src, shortQualifier), types.TypeString(dst, shortQualifier))
	}
}

// shortQualifier renders package-qualified type names with the bare
// package name, keeping messages readable.
func shortQualifier(p *types.Package) string { return p.Name() }

func cmIsUint64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

func cmIsSignedInt(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	info := b.Info()
	return info&types.IsInteger != 0 && info&types.IsUnsigned == 0
}

// cmIsCycleType reports a named type whose name declares cycle content
// (arch.Cycle and friends).
func cmIsCycleType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && isCycleName(named.Obj().Name())
}

// cmIsCycleExpr reports whether e is cycle-flavored: its type is a
// cycle-named uint64 type, or the last component of its path/selector
// spelling passes isCycleName.
func cmIsCycleExpr(info *types.Info, e ast.Expr) bool {
	if t := info.TypeOf(e); t != nil && cmIsCycleType(t) {
		return true
	}
	return isCycleName(cmLastName(e))
}

func cmLastName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.CallExpr:
		return cmLastName(e.Fun)
	case *ast.IndexExpr:
		return cmLastName(e.X)
	}
	return ""
}
