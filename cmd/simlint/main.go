// Command simlint runs the simulator-specific static-analysis suite over
// this module: determinism (flow-sensitive map iteration order), lockorder
// (no lock-order cycles, interprocedural via call-graph summaries),
// detertaint (wall-clock/math-rand/map-order taint tracked through calls,
// fields, and closures into key/ID/stats sinks), undocomplete
// (speculative mutations in cache/memsys/coherence paired with restore
// writes reachable from the cleanup path), enumexhaustive (switches over
// iota enums cover every constant or declare a default), cyclemath
// (uint64 cycle subtraction dominated by a provable a>=b guard, no
// signed<->unsigned cycle conversions, latency and cycle fields typed
// uint64), and staledirective (suppressions that no longer suppress
// anything).
//
// Usage:
//
//	simlint [-enable a,b] [-disable a,b] [packages]
//	simlint -list
//
// Findings print one per line as file:line:col: analyzer: message.
// Packages are directory patterns relative to the current directory
// ("./...", "./internal/campaign", "./internal/..."); the default is the
// whole module; a pattern that matches no package is a usage error. Exit
// status is 1 when findings are reported, 2 on a load or usage error, 0
// when clean.
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

	findings := analysis.NewRunner(mod).Run(analyzers, match)
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
