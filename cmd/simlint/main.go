// Command simlint runs the simulator-specific static-analysis suite over
// this module: determinism (flow-sensitive map iteration order),
// metricscomplete (every Stats counter bound to the registry), cachekey
// (every sim.Config field keyed or excluded+zeroed), errdiscipline (no
// panic in internal/ outside must* helpers), lockorder (no lock-order
// cycles, interprocedural via call-graph summaries), detertaint
// (wall-clock/math-rand/map-order taint tracked through calls, fields,
// and closures into key/ID/stats sinks), undocomplete (speculative
// mutations in cache/memsys/coherence paired with restore writes
// reachable from the cleanup path), enumexhaustive (switches over iota
// enums cover every constant or declare a default), hotalloc (no
// unjustified allocation — make/new/composite literals, growing appends,
// interface boxing, closures, fmt calls — reachable from the per-cycle
// hot roots; see -hotreport), cyclemath (uint64 cycle subtraction
// dominated by a provable a>=b guard, no signed<->unsigned cycle
// conversions, latency and cycle fields typed uint64), and
// staledirective (suppressions that no longer suppress anything).
//
// Usage:
//
//	simlint [-enable a,b] [-disable a,b] [packages]
//	simlint -list
//	simlint -hotreport [> HOTPATH_BUDGET.json]
//	simlint -hotbudget HOTPATH_BUDGET.json
//
// Findings print one per line as file:line:col: analyzer: message.
// Packages are directory patterns relative to the current directory
// ("./...", "./internal/campaign", "./internal/..."); the default is the
// whole module; a pattern that matches no package is a usage error. Exit
// status is 1 when findings are reported, 2 on a load or usage error, 0
// when clean.
//
// -hotreport prints the hot-path allocation budget report: every
// function reachable from the hot roots that still carries allocation
// sites (suppressed or not), with per-kind counts. The report is
// deterministic. -hotbudget compares the current report against a
// committed budget and exits 1 on any growth — new allocating
// functions, per-kind increases, total growth, or a changed root set;
// shrinkage is re-recorded, never failed, so the budget ratchets
// monotonically downward.
//
// Suppressions require a justification:
//
//	//simlint:ordered -- <why iteration order is irrelevant>
//	//simlint:allow <analyzer> -- <why this is safe>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	list := flag.Bool("list", false, "list analyzers and exit")
	hotreport := flag.Bool("hotreport", false, "emit the hot-path allocation budget report as JSON and exit")
	hotbudget := flag.String("hotbudget", "", "compare the hot-path report against this committed budget `file`; exit 1 on growth")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-enable a,b] [-disable a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

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
	if *hotreport || *hotbudget != "" {
		return runHotReport(runner, *hotreport, *hotbudget)
	}

	findings := runner.Run(analyzers, match)
	for _, f := range findings {
		if r, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			f.Pos.Filename = r
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runHotReport serves -hotreport/-hotbudget: it builds the hot-path
// allocation budget report (deterministic), optionally prints it, and
// optionally enforces it against a committed budget file. Re-record a
// legitimately changed budget with `simlint -hotreport > HOTPATH_BUDGET.json`.
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
// subtree. No patterns selects every package. A pattern that matches no
// package is an error, so a mistyped or moved path cannot lint clean.
func packageMatcher(cwd string, mod *analysis.Module, patterns []string) (func(*analysis.Package) bool, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	type rule struct {
		dir     string
		subtree bool
	}
	matches := func(r rule, p *analysis.Package) bool {
		return p.Dir == r.dir || r.subtree && strings.HasPrefix(p.Dir, r.dir+string(filepath.Separator))
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
		if !slices.ContainsFunc(mod.Pkgs, func(p *analysis.Package) bool { return matches(r, p) }) {
			return nil, fmt.Errorf("pattern %q matches no package", pat)
		}
		rules = append(rules, r)
	}
	return func(p *analysis.Package) bool {
		return slices.ContainsFunc(rules, func(r rule) bool { return matches(r, p) })
	}, nil
}
