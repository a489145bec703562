// Command benchrun records and gates perf baselines for the repository's
// core-loop benchmarks (the substrate microbenchmarks in bench_test.go).
//
//	benchrun record -out BENCH_PR6.json      # run + write a baseline
//	benchrun diff BENCH_PR6.json             # run + compare, exit 1 on regression
//	benchrun diff BENCH_PR6.json -threshold 0.75 -alloc-slack 0
//	benchrun diff BENCH_PR6.json -handicap BenchmarkCacheLookup=2   # gate self-test
//
// `record` is also the default when no subcommand is given (bare flags),
// so existing invocations keep working.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchrun"
)

// defaultPattern selects the substrate microbenchmarks — the hot loops
// every simulation runs through, the set-up every cell pays, and Figure
// 11's PoC, whose timer reads wait at the ROB head — rather than the
// ablation benchmarks, whose runtimes are experiment-shaped.
const defaultPattern = "^(BenchmarkCacheLookup|BenchmarkCEASEREncrypt|BenchmarkPredictor|BenchmarkSimulatorThroughput|BenchmarkCellSetup|BenchmarkSpectrePoC)$"

func main() {
	args := os.Args[1:]
	cmd := "record"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "record":
		runRecord(args)
	case "diff":
		runDiff(args)
	default:
		fmt.Fprintf(os.Stderr, "benchrun: unknown subcommand %q (want record or diff)\n", cmd)
		os.Exit(2)
	}
}

// benchFlags are the flags record and diff share: how to run the fresh
// benchmarks.
func benchFlags(fs *flag.FlagSet) (dir, pattern, benchTime *string) {
	dir = fs.String("dir", ".", "package directory containing bench_test.go")
	pattern = fs.String("bench", defaultPattern, "benchmark selection regexp")
	benchTime = fs.String("benchtime", "0.3s", "per-benchmark measuring time")
	return
}

func runBenches(dir, pattern, benchTime string) ([]benchrun.Result, benchrun.Options) {
	opts := benchrun.Options{Dir: dir, Pattern: pattern, BenchTime: benchTime}
	fmt.Fprintf(os.Stderr, "benchrun: running %s (benchtime %s)\n", pattern, benchTime)
	results, err := benchrun.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "benchrun: %-32s %12.0f ops/s %10.0f allocs/op\n", r.Name, r.OpsPerSec, r.AllocsPerOp)
	}
	return results, opts
}

func runRecord(args []string) {
	fs := flag.NewFlagSet("benchrun record", flag.ExitOnError)
	dir, pattern, benchTime := benchFlags(fs)
	out := fs.String("out", "BENCH_PR6.json", `baseline file ("-" = stdout)`)
	fs.Parse(args)

	results, opts := runBenches(*dir, *pattern, *benchTime)
	baseline := benchrun.NewBaseline(opts, results, time.Now())
	data, err := json.MarshalIndent(baseline, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchrun: wrote", *out)
}

func runDiff(args []string) {
	fs := flag.NewFlagSet("benchrun diff", flag.ExitOnError)
	dir, pattern, benchTime := benchFlags(fs)
	threshold := fs.Float64("threshold", 0.25, "allowed fractional ns/op slowdown (0.25 = 25%)")
	allocSlack := fs.Float64("alloc-slack", 0, "allowed absolute allocs/op increase")
	handicap := fs.String("handicap", "", "synthetic slowdown for gate self-tests, Name=factor[,...]")
	// Accept the baseline path on either side of the flags:
	// `diff BENCH_PR6.json -threshold 0.5` and `diff -threshold 0.5 BENCH_PR6.json`.
	var baselinePath string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		baselinePath, args = args[0], args[1:]
	}
	fs.Parse(args)
	switch {
	case baselinePath == "" && fs.NArg() == 1:
		baselinePath = fs.Arg(0)
	case baselinePath != "" && fs.NArg() == 0:
	default:
		fmt.Fprintln(os.Stderr, "usage: benchrun diff [flags] <baseline.json>")
		os.Exit(2)
	}

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	var base benchrun.Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: parsing baseline %s: %v\n", baselinePath, err)
		os.Exit(1)
	}
	if len(base.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchrun: baseline %s has no results\n", baselinePath)
		os.Exit(1)
	}
	// Default the selection to the baseline's own pattern, so the fresh
	// run measures exactly the benchmarks the baseline gates.
	benchPat := *pattern
	if benchPat == defaultPattern && base.Pattern != "" {
		benchPat = base.Pattern
	}

	results, _ := runBenches(*dir, benchPat, *benchTime)
	if factors, ferr := parseHandicap(*handicap); ferr != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", ferr)
		os.Exit(2)
	} else if len(factors) > 0 {
		fmt.Fprintf(os.Stderr, "benchrun: applying synthetic handicap %s\n", *handicap)
		results = benchrun.Handicap(results, factors)
	}

	rep := benchrun.Diff(base, results, benchrun.Thresholds{TimeRatio: *threshold, AllocSlack: *allocSlack})
	rep.Write(os.Stdout)
	if rep.Regressed() {
		os.Exit(1)
	}
}

// parseHandicap parses "Name=1.5,Other=2" into a map.
func parseHandicap(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -handicap entry %q (want Name=value)", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -handicap value in %q: %v", part, err)
		}
		out[name] = f
	}
	return out, nil
}
