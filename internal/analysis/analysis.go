// Package analysis is simlint's engine: a stdlib-only static-analysis
// driver (go/parser + go/ast + go/types with a recursive source importer —
// no x/tools dependency) plus the simulator-specific analyzers that keep
// the repository's headline guarantees machine-checked:
//
//   - determinism: no map-order-dependent iteration in simulation or
//     export paths — the invariant behind bit-identical parallel vs
//     serial campaign runs. Flow-sensitive: the collect-then-sort idiom
//     is tracked through locals and helper calls on every control path
//     (see determinism.go).
//   - detertaint: wall-clock reads, math/rand and maps.Keys/Values
//     iterators are tracked as taint through calls, fields and closures,
//     and reported where they reach a cache key, a seed or span ID, or a
//     Stats field; direct math/rand calls are always reported.
//   - metricscomplete: every exported numeric Stats field reaches the
//     metrics registry in its package's AttachMetrics, so new counters
//     cannot silently drop out of simscope/Perfetto exports.
//   - cachekey: every sim.Config field either participates in the
//     campaign cache key or is explicitly excluded (json:"-") AND zeroed
//     in campaign.Key — the bug class that silently forks or aliases
//     content-addressed cache entries.
//   - cycletyping: latency/cycle-named fields and parameters are uint64,
//     preventing silent truncation in latency arithmetic.
//   - errdiscipline: no panic in internal/ simulation packages outside
//     must* helpers — failures must flow to the campaign engine as errors.
//   - lockorder: the lock-acquisition graph across the concurrent layers
//     (campaign, faultinject, …) is acyclic, and mutex-guarded fields are
//     never touched on paths where the guard is provably not held.
//   - enumexhaustive: every switch over an iota-declared enum covers all
//     of its constants or carries an explicit default — the class of bug
//     that silently drops a coherence-protocol transition.
//   - wireenc: structs reaching json.Marshal (the manifest and fabric
//     lease journals, checksummed cache entries, span JSONL, quarantine
//     dumps) encode
//     canonically — no interface-typed content (the dynamic type drifts
//     across a round-trip) and no map keys outside encoding/json's
//     sorted-key guarantee — so journal rows and cache checksums are
//     byte-stable.
//   - hotalloc: no allocation site (make/new/literals/append/interface
//     boxing/closures/fmt) is reachable from the declared per-cycle hot
//     roots without a justified suppression; simlint -hotreport emits the
//     deterministic allocation budget CI ratchets via HOTPATH_BUDGET.json.
//   - cyclemath: uint64 cycle subtraction a-b is dominated by a provable
//     a>=b guard, and cycle values never cross signed conversions — the
//     classic simulator underflow bug class.
//   - undocomplete: every field of cache, memsys or coherence state that
//     a speculative path mutates is also written on a path reachable from
//     squash/cleanup — the paper's Section 3 undo invariant as lint.
//   - staledirective: a //simlint suppression that suppresses nothing is
//     itself a finding (and is auto-removable with -fix).
//
// Findings are suppressed only by an explicit source directive with a
// justification:
//
//	//simlint:ordered -- <why iteration order is irrelevant here>
//	//simlint:allow <analyzer>[,<analyzer>] -- <why this is safe>
//
// placed on the offending line or the line directly above it. A directive
// without a justification is itself a finding, and so is a directive that
// no longer suppresses anything. A third verb declares facts instead of
// suppressing:
//
//	//simlint:hot -- <why this function runs every cycle>
//
// marks the function declared on the next line as a hotalloc root in
// addition to the committed hotroots.go list.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// An Analyzer is one named check run over every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	// Run is the per-package phase; it may execute concurrently with
	// other packages' passes.
	Run func(*Pass)
	// Finish, when non-nil, runs once after every package's Run phase
	// completed — the hook for module-level checks (lock-graph cycles,
	// stale directives).
	Finish func(*FinishPass)
}

// Analyzers returns the full suite in presentation order. staledirective
// is last on purpose: its Finish phase must observe every suppression
// the other analyzers' findings consumed.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerMetricsComplete,
		AnalyzerCacheKey,
		AnalyzerCycleTyping,
		AnalyzerErrDiscipline,
		AnalyzerLockOrder,
		AnalyzerDeterTaint,
		AnalyzerUndoComplete,
		AnalyzerEnumExhaustive,
		AnalyzerWireEnc,
		AnalyzerHotAlloc,
		AnalyzerCycleMath,
		AnalyzerStaleDirective,
	}
}

// AnalyzerByName resolves a name to an analyzer in the suite.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Finding is one reported violation. Fix, when non-nil, is a mechanical
// rewrite simlint -fix can apply.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	Fix      *Fix           `json:"-"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Pass is one (analyzer, package) execution: the analyzer inspects
// pass.Pkg and reports through pass.Reportf, which applies directive
// suppression before a finding reaches the driver. Passes for different
// packages run concurrently; a Pass itself is single-goroutine.
type Pass struct {
	Mod      *Module
	Pkg      *Package
	analyzer *Analyzer
	runner   *Runner
	findings []Finding
}

// Reportf reports a finding at pos unless a matching //simlint directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportFix(pos, nil, format, args...)
}

// ReportFix reports a finding carrying an optional mechanical fix.
func (p *Pass) ReportFix(pos token.Pos, fix *Fix, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	if p.runner.suppressed(p.analyzer.Name, position) {
		return
	}
	p.findings = append(p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// FinishPass is the module-level phase handed to Analyzer.Finish after
// every per-package pass completed. It runs serially.
type FinishPass struct {
	Mod      *Module
	analyzer *Analyzer
	runner   *Runner
	findings []Finding
}

// Reportf reports a module-level finding, subject to the same directive
// suppression as per-package reports.
func (p *FinishPass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportFix(pos, nil, format, args...)
}

// ReportFix reports a module-level finding carrying an optional fix.
func (p *FinishPass) ReportFix(pos token.Pos, fix *Fix, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	if p.runner.suppressed(p.analyzer.Name, position) {
		return
	}
	p.findings = append(p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// directive is one parsed //simlint comment. hits counts how many
// findings it suppressed in the current Run (atomic: passes race on it).
type directive struct {
	verb      string   // "ordered" or "allow"
	analyzers []string // for allow
	reason    string   // text after " -- "
	pos       token.Position
	end       token.Position // where the comment ends (suppression anchor)
	comment   *ast.Comment
	hits      atomic.Int32
}

// suppresses reports whether the directive silences analyzer.
func (d *directive) suppresses(analyzer string) bool {
	switch d.verb {
	case "ordered":
		return analyzer == "determinism"
	case "allow":
		for _, a := range d.analyzers {
			if a == analyzer {
				return true
			}
		}
	}
	return false
}

// targets returns the analyzer names the directive can suppress.
func (d *directive) targets() []string {
	if d.verb == "ordered" {
		return []string{"determinism"}
	}
	return d.analyzers
}

// Runner executes analyzers over a module and collects findings.
type Runner struct {
	Mod *Module

	// Workers bounds the per-package analysis pool; 0 means GOMAXPROCS.
	// Findings are byte-identical for every worker count.
	Workers int

	// directives maps file name -> line (where the comment ends) ->
	// parsed directive.
	directives map[string]map[int]*directive
	findings   []Finding // directive-scan findings, gathered serially in NewRunner

	// ran and matchedFiles describe the current Run for the Finish
	// phase: which analyzers executed and which files belong to the
	// selected packages.
	ran          map[string]bool
	matchedFiles map[string]bool

	// Module-wide fact caches, built on first use (concurrency-safe).
	sorterOnce sync.Once
	sorters    map[*types.Func][]bool // which slice params a function sorts
	enumOnce   sync.Once
	enums      map[*types.TypeName]*enumInfo // iota-enum facts per named type
	cgOnce     sync.Once
	cg         *callGraph // module call graph (callgraph.go)
	lockOnce   sync.Once
	locks      *lockFacts
	taintOnce  sync.Once
	taints     *taintFacts
	undoOnce   sync.Once
	undo       *undoFacts
	hotOnce    sync.Once
	hot        *hotFacts // hot-path allocation model (hotalloc.go)

	// lockAcc accumulates cross-package lock-graph edges during the
	// parallel phase; AnalyzerLockOrder.Finish reads it.
	lockAcc lockAccumulator

	// wireAcc accumulates JSON serialization sites during the parallel
	// phase; AnalyzerWireEnc.Finish walks the types they root.
	wireAcc wireAccumulator
}

// NewRunner prepares a runner: it scans every loaded file for //simlint
// directives, reporting malformed ones immediately under the "directive"
// pseudo-analyzer (those findings are not suppressible).
func NewRunner(mod *Module) *Runner {
	r := &Runner{Mod: mod, directives: make(map[string]map[int]*directive)}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			r.scanDirectives(f)
		}
	}
	return r
}

func (r *Runner) suppressed(analyzer string, pos token.Position) bool {
	lines := r.directives[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := lines[line]; ok && d.suppresses(analyzer) {
			d.hits.Add(1)
			return true
		}
	}
	return false
}

// scanDirectives parses the //simlint comments of one file.
func (r *Runner) scanDirectives(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//simlint:")
			if !ok {
				continue
			}
			pos := r.Mod.Fset.Position(c.Pos())
			end := r.Mod.Fset.Position(c.End())
			d := &directive{pos: pos, end: end, comment: c}
			body, reason, hasReason := strings.Cut(text, "--")
			d.reason = strings.TrimSpace(reason)
			fields := strings.Fields(strings.TrimSpace(body))
			if len(fields) == 0 {
				r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos, Message: "empty //simlint directive"})
				continue
			}
			d.verb = fields[0]
			if d.verb != "ordered" && d.verb != "allow" && d.verb != "hot" {
				r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos,
					Message: fmt.Sprintf("unknown //simlint directive %q", d.verb)})
				continue
			}
			// A directive without a justification is rejected before its
			// arguments are even considered: it must never suppress.
			if !hasReason || d.reason == "" {
				r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos,
					Message: fmt.Sprintf("//simlint:%s without a justification (append `-- <why this is safe>`)", d.verb)})
				continue
			}
			switch d.verb {
			case "ordered":
				if len(fields) != 1 {
					r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos,
						Message: "//simlint:ordered takes no arguments (write //simlint:ordered -- <justification>)"})
					continue
				}
			case "hot":
				// Declares the function below a hot-path root for the
				// hotalloc analyzer; it suppresses nothing.
				if len(fields) != 1 {
					r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos,
						Message: "//simlint:hot takes no arguments (write //simlint:hot -- <why this runs every cycle>)"})
					continue
				}
			case "allow":
				if len(fields) < 2 {
					r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos,
						Message: "//simlint:allow needs analyzer names (write //simlint:allow <analyzer> -- <justification>)"})
					continue
				}
				var unknown []string
				for _, arg := range fields[1:] {
					for _, name := range strings.Split(arg, ",") {
						if name == "" {
							continue
						}
						if _, ok := AnalyzerByName(name); !ok {
							unknown = append(unknown, name)
						}
						d.analyzers = append(d.analyzers, name)
					}
				}
				if len(unknown) == len(d.analyzers) && len(unknown) > 0 {
					// The directive suppresses only analyzers that no longer
					// exist (renamed or removed): it is dead weight, reported
					// with a removal fix rather than silently ignored.
					r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos,
						Message: fmt.Sprintf("//simlint:allow suppresses only analyzers that no longer exist (%s) — remove the directive", strings.Join(unknown, ", ")),
						Fix:     removeDirectiveFix(c)})
					continue
				}
				if len(unknown) > 0 {
					bad := false
					for _, name := range unknown {
						r.findings = append(r.findings, Finding{Analyzer: "directive", Pos: pos,
							Message: fmt.Sprintf("//simlint:allow names unknown analyzer %q", name)})
						bad = true
					}
					if bad {
						continue
					}
				}
			}
			if r.directives[pos.Filename] == nil {
				r.directives[pos.Filename] = make(map[int]*directive)
			}
			r.directives[pos.Filename][end.Line] = d
		}
	}
}

// Run executes the analyzers over the packages selected by match (nil
// selects all) and returns the accumulated findings sorted by position
// (ties broken by analyzer name, then message). Per-package passes run
// on a bounded worker pool (Runner.Workers); the result is byte-identical
// to a serial run.
func (r *Runner) Run(analyzers []*Analyzer, match func(*Package) bool) []Finding {
	var pkgs []*Package
	r.ran = make(map[string]bool)
	r.matchedFiles = make(map[string]bool)
	for _, a := range analyzers {
		r.ran[a.Name] = true
	}
	for _, pkg := range r.Mod.Pkgs {
		if match != nil && !match(pkg) {
			continue
		}
		pkgs = append(pkgs, pkg)
		for _, f := range pkg.Files {
			r.matchedFiles[r.Mod.Fset.Position(f.Pos()).Filename] = true
		}
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}

	// Per-package result slots keep the merge order independent of
	// worker scheduling; the final position sort makes it immaterial
	// anyway, but byte-identity should not hinge on the sort alone.
	perPkg := make([][]Finding, len(pkgs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var acc []Finding
				for _, a := range analyzers {
					if a.Run == nil {
						continue
					}
					pass := &Pass{Mod: r.Mod, Pkg: pkgs[i], analyzer: a, runner: r}
					a.Run(pass)
					acc = append(acc, pass.findings...)
				}
				perPkg[i] = acc
			}
		}()
	}
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := append([]Finding(nil), r.findings...)
	for _, fs := range perPkg {
		out = append(out, fs...)
	}
	// Finish phase: module-level analyzers, serial, after every
	// suppression the per-package phase will ever record.
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		fp := &FinishPass{Mod: r.Mod, analyzer: a, runner: r}
		a.Finish(fp)
		out = append(out, fp.findings...)
	}
	sortFindings(out)
	return out
}

// removeDirectiveFix deletes a //simlint comment whose every target
// analyzer has been retired from the suite.
func removeDirectiveFix(c *ast.Comment) *Fix {
	return &Fix{
		Message: "remove //simlint directive naming only retired analyzers",
		Edits:   []TextEdit{{Pos: c.Pos(), End: c.End(), NewText: ""}},
	}
}

// sortFindings orders findings by position, breaking ties by analyzer
// name and then message so same-position findings render deterministically.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
