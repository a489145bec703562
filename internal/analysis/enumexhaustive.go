package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerEnumExhaustive enforces exhaustive switches over the module's
// iota-declared enums (trace.Kind, arch.CohState, isa.Op,
// specfuzz.WindowKind, …). A switch whose tag has an iota-enum type must
// either cover every declared constant of that type or carry an explicit
// default clause; otherwise adding an enum member (a new coherence state,
// a new gadget window) silently falls through instead of failing loudly.
// Cardinality sentinels (numWindowKinds, maxOps, …Count) are not treated
// as members.
var AnalyzerEnumExhaustive = &Analyzer{
	Name: "enumexhaustive",
	Doc:  "require switches over iota-declared enum types to cover every constant or declare an explicit default",
	Run:  runEnumExhaustive,
}

// enumInfo is the registry entry for one iota-declared named type.
type enumInfo struct {
	obj     *types.TypeName
	members []enumMember // declaration order, deduped by constant value
}

// enumMember is one declared constant of an enum type.
type enumMember struct {
	name string
	val  string // constant.Value.ExactString(), the coverage key
}

func runEnumExhaustive(p *Pass) {
	enums := p.runner.enumRegistry(p.Mod)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named, ok := p.Pkg.Info.TypeOf(sw.Tag).(*types.Named)
			if !ok {
				return true
			}
			info := enums[named.Obj()]
			if info == nil {
				return true
			}
			covered := make(map[string]bool)
			for _, clause := range sw.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					return true // explicit default: exhaustiveness is the author's problem
				}
				for _, e := range cc.List {
					tv, ok := p.Pkg.Info.Types[e]
					if !ok || tv.Value == nil {
						return true // non-constant case: cannot reason about coverage
					}
					covered[tv.Value.ExactString()] = true
				}
			}
			var missing []string
			for _, m := range info.members {
				if !covered[m.val] {
					missing = append(missing, m.name)
				}
			}
			if len(missing) > 0 {
				p.Reportf(sw.Pos(), "switch over %s does not cover %s and has no default: add the missing cases or an explicit default",
					enumTypeName(p, named.Obj()), strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// enumTypeName renders the enum type for messages, qualified with its
// package name when the switch lives elsewhere.
func enumTypeName(p *Pass, tn *types.TypeName) string {
	if tn.Pkg() == p.Pkg.Types {
		return tn.Name()
	}
	return tn.Pkg().Name() + "." + tn.Name()
}

// enumRegistry builds, once per module, the map of iota-declared enum
// types to their member constants. A named type qualifies when some const
// block in its defining package declares constants of the type using
// iota; its members are then all package-level constants of the type —
// from any const block — minus cardinality sentinels, deduped by value
// (aliases count as their canonical member).
func (r *Runner) enumRegistry(mod *Module) map[*types.TypeName]*enumInfo {
	r.enumOnce.Do(func() {
		iotaObj := types.Universe.Lookup("iota")
		enums := make(map[*types.TypeName]*enumInfo)

		constDecls := func(pkg *Package, visit func(*ast.GenDecl)) {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
						visit(gd)
					}
				}
			}
		}

		// Pass 1: find named types that some iota const block declares.
		for _, pkg := range mod.Pkgs {
			constDecls(pkg, func(gd *ast.GenDecl) {
				usesIota := false
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, v := range vs.Values {
						ast.Inspect(v, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == iotaObj {
								usesIota = true
							}
							return !usesIota
						})
					}
				}
				if !usesIota {
					return
				}
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						c, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok {
							continue
						}
						if named, ok := c.Type().(*types.Named); ok && named.Obj().Pkg() == pkg.Types {
							tn := named.Obj()
							if enums[tn] == nil {
								enums[tn] = &enumInfo{obj: tn}
							}
						}
					}
				}
			})
		}

		// Pass 2: collect every package-level constant of those types.
		for _, pkg := range mod.Pkgs {
			constDecls(pkg, func(gd *ast.GenDecl) {
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.Name == "_" || enumSentinelName(name.Name) {
							continue
						}
						c, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok {
							continue
						}
						named, ok := c.Type().(*types.Named)
						if !ok || named.Obj().Pkg() != pkg.Types {
							continue
						}
						info := enums[named.Obj()]
						if info == nil {
							continue
						}
						val := c.Val().ExactString()
						dup := false
						for _, m := range info.members {
							if m.val == val {
								dup = true
								break
							}
						}
						if !dup {
							info.members = append(info.members, enumMember{name: name.Name, val: val})
						}
					}
				}
			})
		}

		// Drop degenerate "enums" with a single member: switching over
		// them exhaustively is meaningless.
		tns := make([]*types.TypeName, 0, len(enums))
		for tn := range enums {
			tns = append(tns, tn)
		}
		sort.Slice(tns, func(i, j int) bool { return tns[i].Pos() < tns[j].Pos() })
		for _, tn := range tns {
			if len(enums[tn].members) < 2 {
				delete(enums, tn)
			}
		}
		r.enums = enums
	})
	return r.enums
}

// enumSentinelName reports whether a constant name denotes a cardinality
// sentinel (numWindowKinds, MaxOps, stateCount) rather than an enum member.
func enumSentinelName(name string) bool {
	for _, prefix := range []string{"num", "Num", "max", "Max"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return strings.HasSuffix(name, "Count")
}
