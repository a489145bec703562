// Command simlint runs the simulator-specific static-analysis suite over
// this module: determinism (flow-sensitive map iteration order),
// metrics-completeness (every Stats counter bound to the registry),
// cache-key purity (every sim.Config field keyed or excluded+zeroed),
// cycle-typing (latency fields are uint64), error-discipline (no panic in
// internal/ outside must* helpers), lockorder (acquisition cycles, double
// and callee re-acquisition, locks held across goroutine spawns, guarded
// fields touched without their mutex — interprocedural via call-graph
// summaries), detertaint (wall-clock/math-rand/map-order taint tracked
// through calls, fields, and closures into key/ID/stats sinks),
// undocomplete (speculative mutations in cache/memsys/coherence paired
// with restore writes reachable from the cleanup path), enumexhaustive
// (switches over iota enums cover every constant or declare a default),
// wireenc (structs reaching the manifest journal, cache keys and entries,
// span JSONL, or quarantine dumps carry no interface-typed content or
// unordered map keys, and custom MarshalJSON bodies no map ranges, so
// journal rows and cache checksums encode canonically), hotalloc (no unjustified
// allocation — make/new/composite literals, growing appends, interface
// boxing, closures, fmt calls — reachable from the per-cycle hot roots;
// see -hotreport), cyclemath (uint64 cycle subtraction dominated by a
// provable a>=b guard, no signed<->unsigned cycle conversions), and
// staledirective (suppressions that no longer suppress anything).
//
// Usage:
//
//	simlint [-json] [-sarif file] [-fix [-diff]] [-workers n] [-enable a,b] [-disable a,b] [packages]
//	simlint -hotreport [> HOTPATH_BUDGET.json]
//	simlint -hotbudget HOTPATH_BUDGET.json
//
// -hotreport prints the hot-path allocation budget report: every
// function reachable from the hot roots that still carries allocation
// sites (suppressed or not), with per-kind counts. The report is
// deterministic and byte-identical for every -workers value. -hotbudget
// compares the current report against a committed budget and exits 1 on
// any growth — new allocating functions, per-kind increases, total
// growth, or a changed root set; shrinkage is re-recorded, never
// failed, so the budget ratchets monotonically downward.
//
// Packages are directory patterns relative to the current directory
// ("./...", "./internal/campaign", "./internal/..."); the default is the
// whole module. Exit status is 1 when findings are reported (or, with
// -fix -diff, when fixes would change files), 2 on a load or usage error,
// 0 when clean.
//
// -sarif writes the findings as a SARIF 2.1.0 log to the given file ("-"
// for stdout) in addition to the normal output; CI uploads it as a
// blocking artifact. -fix applies every mechanical rewrite the analyzers
// propose — the collect-then-sort map-range idiom, stale-directive
// removal, and the deferred-unlock idiom — through gofmt, and is
// idempotent: a second run changes nothing. -fix -diff previews the same
// rewrites as a unified diff without touching files (CI runs this as a
// blocking step). Findings with no mechanical fix are still printed and
// still fail the run. Suppressions require a justification:
//
//	//simlint:ordered -- <why iteration order is irrelevant>
//	//simlint:allow <analyzer> -- <why this is safe>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	sarifOut := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	list := flag.Bool("list", false, "list analyzers and exit")
	fix := flag.Bool("fix", false, "apply mechanical fixes (gofmt-clean, idempotent)")
	diff := flag.Bool("diff", false, "with -fix: preview fixes as a unified diff instead of writing files")
	workers := flag.Int("workers", 0, "package-analysis worker pool size (0 = GOMAXPROCS); output is identical for any value")
	hotreport := flag.Bool("hotreport", false, "emit the hot-path allocation budget report as JSON and exit")
	hotbudget := flag.String("hotbudget", "", "compare the hot-path report against this committed budget `file`; exit 1 on growth")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-json] [-sarif file] [-fix [-diff]] [-workers n] [-enable a,b] [-disable a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *diff && !*fix {
		fmt.Fprintln(os.Stderr, "simlint: -diff requires -fix")
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	mod, err := analysis.Load(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	match, err := packageMatcher(cwd, mod, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	runner := analysis.NewRunner(mod)
	runner.Workers = *workers

	if *hotreport || *hotbudget != "" {
		return runHotReport(runner, *hotreport, *hotbudget)
	}

	findings := runner.Run(analyzers, match)

	if *sarifOut != "" {
		blob, err := analysis.SARIF(mod.Root, findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		blob = append(blob, '\n')
		if *sarifOut == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*sarifOut, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	}

	if *fix {
		return runFix(cwd, mod, findings, *diff)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runHotReport serves -hotreport/-hotbudget: it builds the hot-path
// allocation budget report (deterministic, byte-identical for any
// -workers value), optionally prints it, and optionally enforces it
// against a committed budget file. Re-record a legitimately changed
// budget with `simlint -hotreport > HOTPATH_BUDGET.json`.
func runHotReport(runner *analysis.Runner, print bool, budgetFile string) int {
	rep := runner.HotReport()
	if print {
		blob, err := rep.MarshalIndent()
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		os.Stdout.Write(blob)
	}
	if budgetFile == "" {
		return 0
	}
	data, err := os.ReadFile(budgetFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	budget, err := analysis.ParseHotReport(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	violations := analysis.CompareHotBudget(budget, rep)
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: hot-path allocation budget exceeded (%d violation(s)); fix the allocation or justify it with //simlint:allow hotalloc, then re-record with simlint -hotreport > %s\n", len(violations), budgetFile)
		return 1
	}
	fmt.Fprintf(os.Stderr, "simlint: hot-path budget ok (%d sites across %d functions)\n", rep.Total, len(rep.Functions))
	return 0
}

// runFix materializes the mechanical fixes carried by findings: with
// diffOnly it prints a unified diff and leaves the tree untouched,
// otherwise it rewrites the files in place. Findings without a fix are
// printed either way; the exit status is 1 unless the tree is both
// finding-free and fix-free.
func runFix(cwd string, mod *analysis.Module, findings []analysis.Finding, diffOnly bool) int {
	fixes, err := analysis.ApplyFixes(mod, findings)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}

	skipped := 0
	for _, ff := range fixes {
		skipped += ff.Skipped
		if diffOnly {
			fmt.Print(ff.Diff(rel(ff.Name)))
			continue
		}
		if err := os.WriteFile(ff.Name, ff.Fixed, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		fmt.Printf("simlint: fixed %s (%s)\n", rel(ff.Name), strings.Join(ff.Messages, "; "))
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d overlapping fix(es) deferred; run -fix again\n", skipped)
	}

	manual := 0
	for _, f := range findings {
		if f.Fix != nil {
			continue
		}
		manual++
		pf := f
		pf.Pos.Filename = rel(f.Pos.Filename)
		fmt.Println(pf)
	}
	if len(fixes) > 0 && diffOnly {
		fmt.Fprintf(os.Stderr, "simlint: %d file(s) need simlint -fix\n", len(fixes))
	}
	if manual > 0 || skipped > 0 || (diffOnly && len(fixes) > 0) {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable/-disable to the suite.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	names := func(csv string) (map[string]bool, error) {
		out := make(map[string]bool)
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := analysis.AnalyzerByName(n); !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", n)
			}
			out[n] = true
		}
		return out, nil
	}
	on, err := names(enable)
	if err != nil {
		return nil, err
	}
	off, err := names(disable)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if len(on) > 0 && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// packageMatcher turns CLI patterns into a package predicate. Patterns are
// directory paths relative to cwd; a trailing /... matches the whole
// subtree. No patterns (or "./...") selects every package.
func packageMatcher(cwd string, mod *analysis.Module, patterns []string) (func(*analysis.Package) bool, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	type rule struct {
		dir     string
		subtree bool
	}
	var rules []rule
	for _, pat := range patterns {
		r := rule{dir: pat}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			r.subtree = true
			r.dir = rest
			if r.dir == "" || r.dir == "." {
				r.dir = "."
			}
		}
		if !filepath.IsAbs(r.dir) {
			r.dir = filepath.Join(cwd, r.dir)
		}
		r.dir = filepath.Clean(r.dir)
		rules = append(rules, r)
	}
	return func(p *analysis.Package) bool {
		for _, r := range rules {
			if p.Dir == r.dir {
				return true
			}
			if r.subtree && strings.HasPrefix(p.Dir, r.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}
