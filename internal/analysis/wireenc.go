package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// AnalyzerWireEnc guards the byte-determinism of everything this module
// serializes as JSON: manifest journal rows, cache keys and checksummed
// cache entries, and quarantine dumps. Those bytes feed content addresses
// and checksums, append-only journals that must replay identically, and
// exports compared byte for byte across worker counts, so a struct that
// can encode the same logical value two different ways is a latent
// divergence bug.
//
// The analyzer seeds on every static json.Marshal / json.Unmarshal /
// (*json.Encoder).Encode / (*json.Decoder).Decode call site, then walks
// the reachable struct graph (through pointers, slices, arrays, map
// values, and named module types) and reports:
//
//   - interface-typed content (any/error fields, []any elements,
//     map[...]any values): the dynamic type drifts across a round-trip
//     (an int re-decodes as float64), so the bytes are not canonical;
//   - map keys that are neither string/integer-underlying nor
//     encoding.TextMarshaler: encoding/json has no canonical key order
//     for them and errors at runtime.
//
// A named type implementing json.Marshaler is a trusted boundary for
// the schema walk — it has taken responsibility for its own (sorted,
// canonical) encoding — but for module types that responsibility is
// audited rather than assumed: the MarshalJSON body itself is inspected,
// and a range over a map inside it (whose iteration order would leak
// into the wire bytes) is reported. json:"-" fields never reach the
// wire and are skipped. Plain map fields with string/integer keys are
// accepted: encoding/json sorts those keys canonically.
var AnalyzerWireEnc = &Analyzer{
	Name:   "wireenc",
	Doc:    "require canonical JSON encoding for structs reaching the manifest journal, cache keys and entries, or quarantine dumps (no interface-typed content, ordered map keys)",
	Run:    runWireEnc,
	Finish: finishWireEnc,
}

// wireSeed is one JSON encode/decode call site and the static type it
// serializes.
type wireSeed struct {
	typ types.Type
	pos token.Position // the call site, for deterministic walk order
}

// wireAccumulator collects wire seeds from the parallel per-package
// phase; AnalyzerWireEnc.Finish walks the type graph they root.
type wireAccumulator struct {
	mu    sync.Mutex
	seeds []wireSeed
}

func (a *wireAccumulator) record(t types.Type, pos token.Position) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seeds = append(a.seeds, wireSeed{typ: t, pos: pos})
}

// runWireEnc finds the JSON serialization sites of one package and
// records the static type each one commits to the wire.
func runWireEnc(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Pkg, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
				return true
			}
			var arg ast.Expr
			switch fn.Name() {
			case "Marshal", "MarshalIndent":
				if len(call.Args) > 0 {
					arg = call.Args[0]
				}
			case "Unmarshal":
				if len(call.Args) > 1 {
					arg = call.Args[1]
				}
			case "Encode", "Decode":
				// Only the Encoder/Decoder methods, not any package
				// function that happens to share the name.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && len(call.Args) > 0 {
					arg = call.Args[0]
				}
			}
			if arg == nil {
				return true
			}
			t := p.Pkg.Info.TypeOf(arg)
			if t == nil {
				return true
			}
			p.runner.wireAcc.record(t, p.Mod.Fset.Position(call.Pos()))
			return true
		})
	}
}

// finishWireEnc walks the struct graph rooted at every recorded seed and
// reports non-canonical content. Runs serially after the parallel phase.
func finishWireEnc(fp *FinishPass) {
	seeds := fp.runner.wireAcc.seeds
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i].pos, seeds[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	w := &wireWalker{
		fp:       fp,
		modPath:  fp.Mod.Path,
		visited:  make(map[string]bool),
		reported: make(map[token.Pos]map[string]bool),
	}
	for _, s := range seeds {
		w.visit(s.typ)
	}
}

type wireWalker struct {
	fp      *FinishPass
	modPath string
	// visited dedupes struct visits by canonical type string, so shared
	// types are walked (and reported) once no matter how many seeds
	// reach them.
	visited map[string]bool
	// reported dedupes findings per (field position, message): the same
	// field can be reached down multiple container paths.
	reported map[token.Pos]map[string]bool
}

// visit descends into t looking for structs to check. Containers are
// transparent; named types stop the walk when they are foreign (outside
// this module — their declarations are not ours to fix) or when they
// implement json.Marshaler (a trusted custom encoding).
func (w *wireWalker) visit(t types.Type) {
	switch t := t.(type) {
	case *types.Pointer:
		w.visit(t.Elem())
	case *types.Slice:
		w.visit(t.Elem())
	case *types.Array:
		w.visit(t.Elem())
	case *types.Map:
		w.visit(t.Elem())
	case *types.Named:
		if isJSONMarshaler(t) {
			w.checkMarshalBody(t)
			return
		}
		if !w.moduleType(t) {
			return
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			w.visitStruct(t.Obj().Name(), st)
			return
		}
		w.visit(t.Underlying())
	case *types.Struct:
		w.visitStruct("(anonymous struct)", t)
	}
}

// visitStruct checks one wire-reachable struct's fields and enqueues the
// module struct types they reference.
func (w *wireWalker) visitStruct(name string, st *types.Struct) {
	key := types.TypeString(st, nil)
	if w.visited[key] {
		return
	}
	w.visited[key] = true
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if tag, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ","); tag == "-" {
			continue // never serialized
		}
		w.checkContent(name, field, field.Type())
	}
}

// checkContent analyzes one field's type (transparently through
// containers), reporting interface content and unordered map keys, and
// recursing into reachable module structs.
func (w *wireWalker) checkContent(owner string, field *types.Var, t types.Type) {
	switch t := t.(type) {
	case *types.Pointer:
		w.checkContent(owner, field, t.Elem())
	case *types.Slice:
		w.checkContent(owner, field, t.Elem())
	case *types.Array:
		w.checkContent(owner, field, t.Elem())
	case *types.Map:
		if !canonicalMapKey(t.Key()) {
			w.reportf(field.Pos(),
				"wire struct %s field %s: map key type %s has no canonical JSON key order (use a string/integer key or implement encoding.TextMarshaler)",
				owner, field.Name(), t.Key())
		}
		w.checkContent(owner, field, t.Elem())
	case *types.Interface:
		w.reportf(field.Pos(),
			"wire struct %s field %s carries interface-typed content (%s): dynamic values have no canonical JSON encoding across a journal round-trip; use a concrete type or a custom sorted marshaller",
			owner, field.Name(), t)
	case *types.Named:
		if isJSONMarshaler(t) {
			w.checkMarshalBody(t) // trusted for the schema walk, but audit the body
			return
		}
		if !w.moduleType(t) {
			return
		}
		if _, ok := t.Underlying().(*types.Struct); ok {
			w.visit(t)
			return
		}
		w.checkContent(owner, field, t.Underlying())
	}
}

// checkMarshalBody audits a module type's custom MarshalJSON. The method
// stops the schema walk — it has taken responsibility for its own
// encoding — but that responsibility is verified, not assumed: a range
// over a map inside the body writes wire bytes in randomized iteration
// order. Collecting the keys into a slice and sorting first (the
// sortedKeys idiom) ranges over a slice and passes. Foreign types are
// skipped (their method bodies are not in the module's ASTs).
func (w *wireWalker) checkMarshalBody(t *types.Named) {
	if !w.moduleType(t) {
		return
	}
	key := "marshal:" + types.TypeString(t, nil)
	if w.visited[key] {
		return
	}
	w.visited[key] = true
	fn := marshalJSONFunc(t)
	if fn == nil {
		return
	}
	node := w.fp.runner.callGraph(w.fp.Mod).nodeFor(fn)
	if node == nil || node.decl == nil || node.decl.Body == nil {
		return
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		xt := node.pkg.Info.TypeOf(rng.X)
		if xt == nil {
			return true
		}
		if _, isMap := xt.Underlying().(*types.Map); isMap {
			w.reportf(rng.Pos(),
				"custom MarshalJSON of %s ranges over map %s: iteration order leaks into the wire bytes; sort the keys into a slice and range over that",
				t.Obj().Name(), exprString(rng.X))
		}
		return true
	})
}

// marshalJSONFunc resolves the concrete MarshalJSON method of t (or *t).
func marshalJSONFunc(t types.Type) *types.Func {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, "MarshalJSON")
		if fn, ok := obj.(*types.Func); ok && fn != nil {
			return fn
		}
	}
	return nil
}

func (w *wireWalker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if w.reported[pos] == nil {
		w.reported[pos] = make(map[string]bool)
	}
	if w.reported[pos][msg] {
		return
	}
	w.reported[pos][msg] = true
	w.fp.Reportf(pos, "%s", msg)
}

// moduleType reports whether a named type is declared inside the module
// under analysis (stdlib and external declarations are not ours to fix,
// and their encodings — time.Time, json.RawMessage — are stable).
func (w *wireWalker) moduleType(t *types.Named) bool {
	pkg := t.Obj().Pkg()
	return pkg != nil && (pkg.Path() == w.modPath || strings.HasPrefix(pkg.Path(), w.modPath+"/"))
}

// canonicalMapKey reports whether encoding/json gives the key type a
// canonical (sorted) encoding: string- or integer-underlying keys are
// sorted by value, and encoding.TextMarshaler keys by their marshalled
// text. Anything else has no defined key encoding at all.
func canonicalMapKey(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok {
		if b.Info()&(types.IsString|types.IsInteger) != 0 {
			return true
		}
	}
	return implementsMethod(t, "MarshalText")
}

// isJSONMarshaler reports whether t (or *t) implements json.Marshaler.
func isJSONMarshaler(t types.Type) bool {
	return implementsMethod(t, "MarshalJSON")
}

// implementsMethod reports whether t or *t has a method with the given
// name — a structural stand-in for the json.Marshaler /
// encoding.TextMarshaler checks that avoids constructing the stdlib
// interface types here.
func implementsMethod(t types.Type, name string) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, name)
		if fn, ok := obj.(*types.Func); ok && fn != nil {
			return true
		}
	}
	return false
}
