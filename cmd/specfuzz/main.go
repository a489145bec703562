// Command specfuzz is the countermeasure-fuzzing front end: it generates
// seeded speculative gadgets, runs each as a differential pair (secret=A
// vs secret=B) under every policy on the campaign worker pool, flags
// leaks that survive a defense, shrinks findings to reduced reproducers,
// and maintains a replayable corpus.
//
// Usage:
//
//	specfuzz run      -seed 1 -count 64 -cache .specfuzz -report report.json -corpus corpus.jsonl
//	specfuzz minimize -corpus corpus.jsonl -policy nonsecure -out reduced.jsonl
//	specfuzz corpus   -in corpus.jsonl -require-leak nonsecure -require-clean cleanupspec
//	specfuzz report   -in report.json
//	specfuzz report   -coverage -corpus corpus.jsonl
//
// A seeded run is fully deterministic: the same (seed, count, policies)
// triple produces byte-identical corpora and verdicts regardless of
// worker count, and an interrupted run resumes from the campaign cache.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/specfuzz"
	"repro/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "minimize":
		err = cmdMinimize(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "specfuzz: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "specfuzz:", strings.TrimPrefix(err.Error(), "specfuzz: "))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  specfuzz run      [flags]   generate gadgets and fuzz every policy
  specfuzz minimize [flags]   shrink corpus gadgets to reduced reproducers
  specfuzz corpus   [flags]   replay a corpus and check its expectations
  specfuzz report   [flags]   render a run's JSON report as a table

run flags:
  -seed N             generation + hierarchy seed (default 1)
  -count N            gadgets to generate (default 64)
  -policies p,q       policies under test (default: all)
  -parallel N         worker count (default GOMAXPROCS = %d)
  -cache dir          campaign cell cache (default ".specfuzz"; "" = memory only)
  -report file        write the full JSON report
  -corpus file        write effective gadgets as a replayable JSONL corpus
  -q                  suppress progress lines
  -fail-on-survivor   exit nonzero if any leak survives a defense
  -min-effective N    exit nonzero unless ≥N gadgets leak on the baseline

minimize flags:
  -corpus file        input corpus (required)
  -policy p           policy the reproducer must keep leaking under (default nonsecure)
  -out file           write reduced corpus (default: stdout)

corpus flags:
  -in file            corpus to replay (required)
  -policies p,q       policies to replay under (default: those with expectations)
  -require-leak p     fail unless ≥1 entry leaks under policy p (repeatable via comma list)
  -require-clean p    fail if any entry leaks under policy p (comma list)
  -check-expect       fail on any expectation mismatch (default true)

report flags:
  -in file            JSON report from "specfuzz run"
  -corpus file        derive coverage from a JSONL corpus instead of a report
  -coverage           render the gadget-space coverage heatmap
                      (window × pattern × receiver × flush cells per policy,
                      with every unexplored cell named)

policies: %s
`, runtime.GOMAXPROCS(0), policyNames())
}

func policyNames() string {
	var names []string
	for _, p := range sim.Policies() {
		names = append(names, string(p))
	}
	return strings.Join(names, " ")
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("specfuzz run", flag.ExitOnError)
	var (
		seed      = fs.Uint64("seed", 1, "generation + hierarchy seed")
		count     = fs.Int("count", 64, "gadgets to generate")
		policiesF = fs.String("policies", "", "comma-separated policies (default: all)")
		parallel  = fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
		cacheDir  = fs.String("cache", ".specfuzz", "campaign cell cache directory (empty = memory only)")
		reportOut = fs.String("report", "", "write the full JSON report to this file")
		corpusOut = fs.String("corpus", "", "write effective gadgets as JSONL corpus to this file")
		quiet     = fs.Bool("q", false, "suppress progress lines")
		failSurv  = fs.Bool("fail-on-survivor", false, "exit nonzero if any leak survives a defense")
		minEff    = fs.Int("min-effective", 0, "exit nonzero unless at least N gadgets leak on the unprotected baseline")
	)
	fs.Parse(args)
	if err := checkCount(*count); err != nil {
		fmt.Fprintln(os.Stderr, "specfuzz:", err)
		os.Exit(2)
	}

	policies, err := campaign.ParsePolicies(*policiesF)
	if err != nil {
		return err
	}
	opts := specfuzz.Options{Seed: *seed, Count: *count, Policies: policies}

	eng := campaign.NewEngine()
	eng.Workers = *parallel
	if !*quiet {
		eng.Reporter = campaign.NewReporter(os.Stderr)
	}
	if *cacheDir != "" {
		cache, cerr := campaign.OpenCache(*cacheDir)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "specfuzz: warning: %v; running without a cache\n", cerr)
		} else {
			if !*quiet {
				cache.Warn = func(msg string) { fmt.Fprintln(os.Stderr, "specfuzz: warning:", msg) }
			}
			eng.Cache = cache
		}
	}

	rep, err := specfuzz.Run(eng, opts)
	if err != nil {
		return err
	}
	printReport(rep)

	if *reportOut != "" {
		data, merr := json.MarshalIndent(rep, "", " ")
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(*reportOut, append(data, '\n'), 0o644); werr != nil {
			return werr
		}
		fmt.Fprintln(os.Stderr, "specfuzz: wrote", *reportOut)
	}
	if *corpusOut != "" {
		entries := specfuzz.CorpusFromReport(rep, runPolicies(opts))
		if err := specfuzz.SaveCorpus(*corpusOut, entries); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "specfuzz: wrote %s (%d entries)\n", *corpusOut, len(entries))
	}

	if n := len(rep.Failures); n > 0 {
		return fmt.Errorf("%d cell(s) failed", n)
	}
	if *failSurv {
		if n := len(rep.Survivors()); n > 0 {
			return fmt.Errorf("%d leak(s) survived a defense", n)
		}
	}
	if *minEff > 0 {
		eff := 0
		for _, g := range rep.Gadgets {
			if g.Effective(runPolicies(opts)) {
				eff++
			}
		}
		if eff < *minEff {
			return fmt.Errorf("only %d gadget(s) effective on the baseline, want ≥%d", eff, *minEff)
		}
	}
	return nil
}

// checkCount rejects a gadget count below 1 before any cell runs.
func checkCount(count int) error {
	if count < 1 {
		return fmt.Errorf("-count %d: want at least 1", count)
	}
	return nil
}

// runPolicies resolves the effective policy list of a run.
func runPolicies(opts specfuzz.Options) []sim.Policy {
	if len(opts.Policies) > 0 {
		return opts.Policies
	}
	return sim.Policies()
}

func printReport(rep specfuzz.Report) {
	fmt.Printf("specfuzz: seed %d, %d gadgets × %d policies\n", rep.Seed, rep.Count, len(rep.Policies))
	fmt.Printf("%-22s %8s %8s %8s %8s\n", "policy", "cells", "leaks", "timing", "state")
	for _, s := range rep.Summary {
		fmt.Printf("%-22s %8d %8d %8d %8d\n", s.Policy, s.Gadgets, s.Leaks, s.TimingLeaks, s.StateLeaks)
	}
	surv := rep.Survivors()
	if len(surv) == 0 {
		fmt.Println("no leaks survive any defense")
		return
	}
	fmt.Printf("%d leak(s) SURVIVE a defense:\n", len(surv))
	for _, v := range surv {
		fmt.Printf("  %s under %s via %s (max Δ %d cycles, %d state diffs)\n",
			v.Gadget, v.Policy, strings.Join(v.Channels, "+"), v.MaxTimingDelta, len(v.StateDiffs))
	}
}

func cmdMinimize(args []string) error {
	fs := flag.NewFlagSet("specfuzz minimize", flag.ExitOnError)
	var (
		corpusIn = fs.String("corpus", "", "input corpus (required)")
		policyF  = fs.String("policy", string(sim.NonSecure), "policy the reproducer must keep leaking under")
		outF     = fs.String("out", "", "write reduced corpus to this file (default: stdout)")
	)
	fs.Parse(args)
	if *corpusIn == "" {
		return fmt.Errorf("minimize: -corpus is required")
	}
	pols, err := campaign.ParsePolicies(*policyF)
	if err != nil {
		return err
	}
	if len(pols) != 1 {
		return fmt.Errorf("minimize: -policy must name exactly one policy")
	}
	entries, err := specfuzz.LoadCorpus(*corpusIn)
	if err != nil {
		return err
	}
	var reduced []specfuzz.CorpusEntry
	for _, e := range entries {
		mr, merr := specfuzz.Minimize(e.Spec, sim.Config{Policy: pols[0], Seed: e.Seed})
		if merr != nil {
			fmt.Fprintf(os.Stderr, "specfuzz: %s: %v (kept as is)\n", e.Spec.ID, merr)
			reduced = append(reduced, e)
			continue
		}
		fmt.Fprintf(os.Stderr, "specfuzz: %s: %d reduction(s) in %d trial(s)\n", e.Spec.ID, mr.Steps, mr.Trials)
		reduced = append(reduced, specfuzz.CorpusEntry{
			Spec: mr.Reduced,
			Seed: e.Seed,
			Expect: []specfuzz.Expectation{
				{Policy: mr.Verdict.Policy, Leak: true, Channels: mr.Verdict.Channels},
			},
		})
	}
	if *outF == "" {
		return specfuzz.WriteCorpus(os.Stdout, reduced)
	}
	if err := specfuzz.SaveCorpus(*outF, reduced); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "specfuzz: wrote %s (%d entries)\n", *outF, len(reduced))
	return nil
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("specfuzz corpus", flag.ExitOnError)
	var (
		inF          = fs.String("in", "", "corpus to replay (required)")
		policiesF    = fs.String("policies", "", "policies to replay under (default: those with expectations)")
		requireLeak  = fs.String("require-leak", "", "fail unless ≥1 entry leaks under each of these policies")
		requireClean = fs.String("require-clean", "", "fail if any entry leaks under one of these policies")
		checkExpect  = fs.Bool("check-expect", true, "fail on any expectation mismatch")
	)
	fs.Parse(args)
	if *inF == "" {
		return fmt.Errorf("corpus: -in is required")
	}
	entries, err := specfuzz.LoadCorpus(*inF)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("corpus: %s has no entries", *inF)
	}

	policies, err := campaign.ParsePolicies(*policiesF)
	if err != nil {
		return err
	}
	mustLeak, err := campaign.ParsePolicies(*requireLeak)
	if err != nil {
		return err
	}
	mustClean, err := campaign.ParsePolicies(*requireClean)
	if err != nil {
		return err
	}
	if len(policies) == 0 {
		policies = expectedPolicies(entries, mustLeak, mustClean)
	}
	if len(policies) == 0 {
		return fmt.Errorf("corpus: no policies to replay (no expectations recorded; pass -policies)")
	}

	rep := specfuzz.Replay(entries, policies)
	fmt.Printf("specfuzz: replayed %d entries under %d policies\n", len(entries), len(policies))
	for _, p := range rep.Policies {
		fmt.Printf("%-22s %d/%d leak\n", p.Policy, p.Leaks, p.Entries)
	}
	for _, m := range rep.Mismatches {
		fmt.Println("mismatch:", m)
	}
	for _, f := range rep.Failures {
		fmt.Println("failure:", f)
	}

	var problems []string
	if len(rep.Failures) > 0 {
		problems = append(problems, fmt.Sprintf("%d replay failure(s)", len(rep.Failures)))
	}
	if *checkExpect && len(rep.Mismatches) > 0 {
		problems = append(problems, fmt.Sprintf("%d expectation mismatch(es)", len(rep.Mismatches)))
	}
	for _, p := range mustLeak {
		if n := rep.Leaks(string(p)); n == 0 {
			problems = append(problems, fmt.Sprintf("no entry leaks under %s (expected ≥1)", p))
		} else if n < 0 {
			problems = append(problems, fmt.Sprintf("policy %s was not replayed", p))
		}
	}
	for _, p := range mustClean {
		if n := rep.Leaks(string(p)); n > 0 {
			problems = append(problems, fmt.Sprintf("%d entr(ies) leak under %s (expected 0)", n, p))
		} else if n < 0 {
			problems = append(problems, fmt.Sprintf("policy %s was not replayed", p))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("corpus check failed: %s", strings.Join(problems, "; "))
	}
	fmt.Println("corpus OK")
	return nil
}

// expectedPolicies derives the replay policy set from recorded
// expectations plus any -require-* policies, in stable order.
func expectedPolicies(entries []specfuzz.CorpusEntry, extra ...[]sim.Policy) []sim.Policy {
	seen := make(map[sim.Policy]bool)
	for _, e := range entries {
		for _, x := range e.Expect {
			seen[sim.Policy(x.Policy)] = true
		}
	}
	for _, list := range extra {
		for _, p := range list {
			seen[p] = true
		}
	}
	var out []sim.Policy
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("specfuzz report", flag.ExitOnError)
	inF := fs.String("in", "", "JSON report from \"specfuzz run\"")
	corpusF := fs.String("corpus", "", "derive coverage from this JSONL corpus instead of a report")
	coverage := fs.Bool("coverage", false, "render the gadget-space coverage heatmap (window × pattern × receiver × flush)")
	fs.Parse(args)

	var rep specfuzz.Report
	var cov specfuzz.Coverage
	switch {
	case *inF != "":
		data, err := os.ReadFile(*inF)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("report: parsing %s: %w", *inF, err)
		}
		cov = rep.Coverage
		if cov == nil {
			// Reports from before coverage landed still render: derive it.
			cov = specfuzz.CoverageFromReport(rep)
		}
	case *corpusF != "":
		if !*coverage {
			return fmt.Errorf("report: -corpus only renders coverage (pass -coverage)")
		}
		entries, err := specfuzz.LoadCorpus(*corpusF)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("report: corpus %s has no entries", *corpusF)
		}
		cov = specfuzz.CoverageFromEntries(entries)
	default:
		return fmt.Errorf("report: -in or -corpus is required")
	}

	if *coverage {
		cov.WriteHeatmap(os.Stdout)
		return nil
	}
	printReport(rep)
	for _, f := range rep.Failures {
		fmt.Println("failure:", f)
	}
	return nil
}
