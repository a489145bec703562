package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerMetricsComplete guards the full-depth-observability contract:
// every exported numeric counter a package accumulates must be bound into
// the metrics registry by that package's AttachMetrics, so a newly added
// Stats field cannot silently drop out of the counter dump, the interval
// sampler, and the Perfetto export.
//
// For each method AttachMetrics(reg *metrics.Registry, …) the analyzer
// determines the receiver's stat carriers — its fields named Stats or
// Traffic whose types are structs, or, when it has none of those (the MSHR
// style), the receiver struct itself — and requires every exported numeric
// field of each carrier to be referenced somewhere in the AttachMetrics
// body (pointer binding, CounterFunc closure, GaugeFunc closure all count).
// Fields that are deliberately unregistered carry
// //simlint:allow metricscomplete -- <justification> on their declaration.
var AnalyzerMetricsComplete = &Analyzer{
	Name: "metricscomplete",
	Doc:  "require every exported numeric Stats/Traffic field to be bound to the metrics registry in its package's AttachMetrics",
	Run:  runMetricsComplete,
}

func runMetricsComplete(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "AttachMetrics" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if !firstParamIsRegistry(sig) {
				continue
			}
			recv := derefStruct(sig.Recv().Type())
			if recv == nil {
				continue
			}
			referenced := referencedFields(p, fd.Body)
			for _, carrier := range statCarriers(recv) {
				for i := 0; i < carrier.NumFields(); i++ {
					field := carrier.Field(i)
					if !field.Exported() || !isNumeric(field.Type()) || referenced[field] {
						continue
					}
					p.Reportf(field.Pos(),
						"exported counter %s is never bound in (%s).AttachMetrics: it will be missing from every metrics export; bind it or annotate //simlint:allow metricscomplete -- <why>",
						field.Name(), sig.Recv().Type())
				}
			}
		}
	}
}

// firstParamIsRegistry reports whether the method's first parameter is a
// *Registry (matched by type name so the analyzer works on both the real
// internal/metrics and the golden-test stand-in).
func firstParamIsRegistry(sig *types.Signature) bool {
	if sig.Params().Len() == 0 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// statCarriers returns the structs whose exported numeric fields must all
// be registered: the receiver's Stats/Traffic fields when present,
// otherwise the receiver struct itself.
func statCarriers(recv *types.Struct) []*types.Struct {
	var out []*types.Struct
	for i := 0; i < recv.NumFields(); i++ {
		f := recv.Field(i)
		if f.Name() != "Stats" && f.Name() != "Traffic" {
			continue
		}
		if s, ok := f.Type().Underlying().(*types.Struct); ok {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = append(out, recv)
	}
	return out
}

// referencedFields collects every struct field selected anywhere in body.
func referencedFields(p *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := p.Pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// derefStruct unwraps pointers and named types down to a struct, or nil.
func derefStruct(t types.Type) *types.Struct {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
}

// isNumeric reports whether t's underlying type is an integer or float.
func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
