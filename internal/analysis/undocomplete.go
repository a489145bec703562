package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerUndoComplete enforces the paper's Section-3 invariant as lint:
// every state mutation a speculative path can make in the memory system
// must have an undo counterpart reachable from the squash/cleanup path,
// or the "undo" in CleanupSpec silently rots into "leak".
//
// The model is deliberately repo-shaped:
//
//   - Scope: struct fields declared in internal/cache, internal/memsys,
//     and internal/coherence (tags, replacement state, spec marks, MSHR
//     entries, directory sharer sets). Bookkeeping carriers are excluded
//     — structs named Txn or suffixed Stats/Traffic/Opts/Options/Config,
//     and sync-typed fields — they are not architectural state.
//   - Speculative roots: functions of those packages that handle
//     speculation explicitly — a `spec`/`speculative` parameter, a name
//     or body referencing Spec* identifiers (SpecInstalled, MarkSpec), or
//     the speculation carrier types LoadOpts / SEFE. Roots are marker-
//     based rather than entry-point-based because the fill path is
//     asynchronous: Load enqueues and Tick completes, so reachability
//     from Load alone would miss every fill-time mutation.
//   - Cleanup roots: functions whose name carries the undo vocabulary —
//     Cleanup, Restore, Squash, Rollback, Undo, ClearSpec, Commit (the
//     commit path retires the same obligations by confirming them).
//   - Obligation: a (struct, field) pair mutated in any function
//     reachable from a speculative root must also be mutated in some
//     function reachable from a cleanup root. Writes through a pointer
//     (`*ln = Line{…}`) count as writes to every field; delete/index
//     writes count as writes to the map/slice field.
//
// An unpaired mutation is reported once, at its first site. Deliberate
// exceptions are annotated
// //simlint:allow undocomplete -- <why no undo is needed>.
var AnalyzerUndoComplete = &Analyzer{
	Name: "undocomplete",
	Doc:  "pair speculative-path mutations in cache/memsys/coherence with restore/undo writes reachable from the cleanup path",
	Run:  runUndoComplete,
}

// undoTargetPkg reports whether a module-relative package path is in the
// undo-obligation scope.
func undoTargetPkg(rel string) bool {
	switch rel {
	case "internal/cache", "internal/memsys", "internal/coherence":
		return true
	}
	return false
}

// obKey identifies one obligation: a field of a scoped struct.
type obKey struct {
	owner string // classPrefix form: pkg/path.Struct
	field string
}

// undoFacts is the module-wide obligation model.
type undoFacts struct {
	g *callGraph
	// specMut / cleanMut map each obligation to its mutation sites on
	// speculative-reachable / cleanup-reachable functions (sorted).
	specMut  map[obKey][]token.Pos
	cleanMut map[obKey][]token.Pos
}

// undoModel classifies roots, computes reachability, and collects
// mutations, once per Runner.
func (r *Runner) undoModel(mod *Module) *undoFacts {
	r.undoOnce.Do(func() {
		g := r.callGraph(mod)
		uf := &undoFacts{
			g:        g,
			specMut:  make(map[obKey][]token.Pos),
			cleanMut: make(map[obKey][]token.Pos),
		}
		var specRoots, cleanRoots []*cgNode
		for _, n := range g.nodes {
			if !undoTargetPkg(n.pkg.Rel()) {
				continue
			}
			switch classifyUndoRoot(n) {
			case undoRootCleanup:
				cleanRoots = append(cleanRoots, n)
			case undoRootSpec:
				specRoots = append(specRoots, n)
			}
		}
		specReach := g.reachable(specRoots)
		cleanReach := g.reachable(cleanRoots)
		for _, n := range g.nodes {
			spec, clean := specReach[n], cleanReach[n]
			if !spec && !clean {
				continue
			}
			for _, w := range mutationWrites(mod, n) {
				if spec {
					uf.specMut[w.key] = append(uf.specMut[w.key], w.pos)
				}
				if clean {
					uf.cleanMut[w.key] = append(uf.cleanMut[w.key], w.pos)
				}
			}
		}
		for _, m := range []map[obKey][]token.Pos{uf.specMut, uf.cleanMut} {
			//simlint:ordered -- per-key slice sort; keys are not emitted in this order
			for k := range m {
				sort.Slice(m[k], func(i, j int) bool { return m[k][i] < m[k][j] })
			}
		}
		r.undo = uf
	})
	return r.undo
}

const (
	undoRootNone = iota
	undoRootSpec
	undoRootCleanup
)

// cleanupNameWords is the undo vocabulary that makes a function a cleanup
// root.
var cleanupNameWords = []string{"Cleanup", "Restore", "Squash", "Rollback", "Undo", "ClearSpec", "Commit"}

// classifyUndoRoot decides whether a function anchors the speculative or
// the cleanup side. Cleanup naming wins over speculation markers
// (ClearSpecMark is an undo, not a speculation site).
func classifyUndoRoot(n *cgNode) int {
	name := ""
	if n.decl != nil {
		name = n.decl.Name.Name
	}
	for _, w := range cleanupNameWords {
		if strings.Contains(name, w) {
			return undoRootCleanup
		}
	}
	if strings.Contains(name, "Spec") {
		return undoRootSpec
	}
	for _, pv := range paramVars(n) {
		switch pv.Name() {
		case "spec", "speculative":
			return undoRootSpec
		}
		if tn := derefNamed(pv.Type()); tn != nil {
			switch tn.Obj().Name() {
			case "LoadOpts", "SEFE":
				return undoRootSpec
			}
		}
	}
	root := undoRootNone
	walkShallow(n.body, func(m ast.Node) {
		id, ok := m.(*ast.Ident)
		if !ok || root != undoRootNone {
			return
		}
		obj := n.pkg.Info.Uses[id]
		if obj == nil {
			return
		}
		if strings.HasPrefix(obj.Name(), "Spec") {
			root = undoRootSpec
			return
		}
		if tn, ok := obj.(*types.TypeName); ok {
			switch tn.Name() {
			case "LoadOpts", "SEFE":
				root = undoRootSpec
			}
		}
	})
	return root
}

// obWrite is one mutation site.
type obWrite struct {
	key obKey
	pos token.Pos
}

// mutationWrites collects the scoped-field mutations in one function's
// own body.
func mutationWrites(mod *Module, n *cgNode) []obWrite {
	var out []obWrite
	add := func(k obKey, pos token.Pos) {
		if k.owner != "" {
			out = append(out, obWrite{key: k, pos: pos})
		}
	}
	walkShallow(n.body, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				collectLhsWrites(mod, n.pkg, lhs, add)
			}
		case *ast.IncDecStmt:
			collectLhsWrites(mod, n.pkg, m.X, add)
		case *ast.CallExpr:
			// delete(x.f, k) mutates the map field f.
			if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "delete" && len(m.Args) == 2 {
				if _, builtin := n.pkg.Info.Uses[id].(*types.Builtin); builtin {
					if sel, ok := ast.Unparen(m.Args[0]).(*ast.SelectorExpr); ok {
						add(scopedFieldKey(mod, n.pkg, sel), m.Pos())
					}
				}
			}
		}
	})
	return out
}

// collectLhsWrites resolves one assignment target to the scoped fields it
// mutates.
func collectLhsWrites(mod *Module, pkg *Package, lhs ast.Expr, add func(obKey, token.Pos)) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		add(scopedFieldKey(mod, pkg, lhs), lhs.Sel.Pos())
	case *ast.IndexExpr:
		// x.f[i] = v mutates the field f.
		if sel, ok := ast.Unparen(lhs.X).(*ast.SelectorExpr); ok {
			add(scopedFieldKey(mod, pkg, sel), lhs.Pos())
		}
	case *ast.StarExpr:
		// *p = v overwrites every field of the pointee struct.
		t := pkg.Info.TypeOf(lhs.X)
		if t == nil {
			return
		}
		named := derefNamed(t)
		if named == nil || !scopedStruct(mod, named) {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if excludedField(fv) {
				continue
			}
			add(obKey{owner: classPrefix(named), field: fv.Name()}, lhs.Pos())
		}
	}
}

// scopedFieldKey resolves a selector to an obligation key, or a zero key
// when the target is not a scoped struct field.
func scopedFieldKey(mod *Module, pkg *Package, sel *ast.SelectorExpr) obKey {
	selInfo, ok := pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return obKey{}
	}
	fv, ok := selInfo.Obj().(*types.Var)
	if !ok || excludedField(fv) {
		return obKey{}
	}
	named := derefNamed(selInfo.Recv())
	if named == nil || !scopedStruct(mod, named) {
		return obKey{}
	}
	return obKey{owner: classPrefix(named), field: fv.Name()}
}

// scopedStruct reports whether a named type is architectural state in the
// undo-obligation scope.
func scopedStruct(mod *Module, named *types.Named) bool {
	tp := named.Obj().Pkg()
	if tp == nil {
		return false
	}
	rel := strings.TrimPrefix(tp.Path(), mod.Path+"/")
	if !undoTargetPkg(rel) {
		return false
	}
	name := named.Obj().Name()
	switch name {
	case "Txn":
		return false // in-flight transaction bookkeeping, not retained state
	case "SEFE":
		// The Side-Effect Entry IS the undo record (paper Figure 7):
		// writing it is how the speculative path arranges its own undo,
		// and the record is consumed at squash/commit, never restored.
		return false
	case "MSHREntry":
		// Transient in-flight miss bookkeeping: entries are discarded at
		// Release, so there is no retained state to roll back.
		return false
	case "Snapshot", "SnapshotLine":
		return false // diagnostic value copies of state, not the state itself
	}
	for _, suffix := range []string{"Stats", "Traffic", "Opts", "Options", "Config"} {
		if strings.HasSuffix(name, suffix) {
			return false
		}
	}
	return true
}

// excludedField reports whether a field is synchronization rather than
// state.
func excludedField(fv *types.Var) bool {
	return isMutexType(fv.Type()) || isSyncInternalType(fv.Type())
}

// runUndoComplete reports, per target package, the speculative mutations
// with no cleanup-side counterpart.
func runUndoComplete(p *Pass) {
	if !undoTargetPkg(p.Pkg.Rel()) {
		return
	}
	uf := p.runner.undoModel(p.Mod)
	keys := make([]obKey, 0, len(uf.specMut))
	for k := range uf.specMut {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		return keys[i].field < keys[j].field
	})
	pkgPrefix := p.Pkg.Types.Path() + "."
	for _, k := range keys {
		if len(uf.cleanMut[k]) > 0 {
			continue
		}
		if !strings.HasPrefix(k.owner, pkgPrefix) {
			continue // another package's pass reports it
		}
		pos := uf.specMut[k][0]
		p.Reportf(pos, "speculative-path mutation of %s.%s has no restore/undo counterpart reachable from any cleanup/squash function: a squashed speculation would leak this state; add a restoring write to the cleanup path (or annotate //simlint:allow undocomplete -- <why no undo is needed>)",
			shortClass(p, k.owner), k.field)
	}
}

// Obligation is one entry of the undo-obligation report: a field the
// speculative path mutates, with its pairing status.
type Obligation struct {
	Struct string // pkg/path.Struct
	Field  string
	// MutationPos is the first speculative-side mutation site.
	MutationPos token.Position
	// Paired reports whether a cleanup-reachable function also writes the
	// field; RestorePos is its first site when so.
	Paired     bool
	RestorePos token.Position
}

// ObligationReport lists every speculative-mutation obligation of the
// module, sorted by struct and field.
type ObligationReport struct {
	Obligations []Obligation
}

// UndoObligations computes the undo-obligation report for a module. It is
// the programmatic face of the undocomplete analyzer, used by the repo's
// own pairing test (and usable from tooling).
func UndoObligations(mod *Module) ObligationReport {
	r := NewRunner(mod)
	uf := r.undoModel(mod)
	keys := make([]obKey, 0, len(uf.specMut))
	for k := range uf.specMut {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		return keys[i].field < keys[j].field
	})
	var report ObligationReport
	for _, k := range keys {
		o := Obligation{
			Struct:      k.owner,
			Field:       k.field,
			MutationPos: mod.Fset.Position(uf.specMut[k][0]),
		}
		if sites := uf.cleanMut[k]; len(sites) > 0 {
			o.Paired = true
			o.RestorePos = mod.Fset.Position(sites[0])
		}
		report.Obligations = append(report.Obligations, o)
	}
	return report
}
