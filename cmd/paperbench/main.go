// Command paperbench regenerates every table and figure of the paper's
// evaluation on the simulator and prints them with paper-vs-measured notes.
//
// Usage:
//
//	paperbench                     # run everything
//	paperbench -exp fig12,table6   # run selected experiments
//	paperbench -instructions 500000 -iterations 100
//	paperbench -md EXPERIMENTS.md  # also write a markdown report
//	paperbench -csv results.csv    # also write every table as CSV
//	paperbench -cache .campaign    # durable result cache (shared with cmd/campaign)
//	paperbench -metrics-out mcf.jsonl -trace-out mcf.trace.json -metrics-workload mcf
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/sim"
)

func main() {
	var (
		exps         = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		instructions = flag.Uint64("instructions", 150_000, "committed instructions per measurement window")
		iterations   = flag.Int("iterations", 30, "Spectre PoC iterations (Figure 11)")
		mtsteps      = flag.Int("mtsteps", 30_000, "steps per multithreaded workload (Figure 9)")
		mdOut        = flag.String("md", "", "also write a markdown report to this file")
		jsonOut      = flag.String("json", "", "also write the reports as JSON to this file")
		csvOut       = flag.String("csv", "", "also write every report table as CSV to this file")
		cacheDir     = flag.String("cache", "", "durable result cache directory (shared with cmd/campaign); reruns only simulate missing cells")
		quiet        = flag.Bool("q", false, "suppress per-run progress lines")
		metricsOut   = flag.String("metrics-out", "", "write per-policy interval time series here (policy inserted before the extension)")
		traceOut     = flag.String("trace-out", "", "write a merged per-policy Perfetto trace here")
		metricsWL    = flag.String("metrics-workload", "astar", "workload for -metrics-out/-trace-out")
		sampleEvery  = flag.Uint64("sample-every", 1000, "metrics sampling interval in cycles")
	)
	flag.Parse()
	err := checkCounts(*instructions, *iterations, *mtsteps)
	if err == nil {
		err = checkSampling(*sampleEvery, *metricsOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}

	if *metricsOut != "" || *traceOut != "" {
		if err := exportObservability(*metricsWL, *instructions, *sampleEvery, *metricsOut, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	}

	opts := experiments.DefaultOptions()
	opts.Instructions = *instructions
	opts.SpectreIterations = *iterations
	opts.MTSteps = *mtsteps
	r := experiments.NewRunner(opts)
	r.Quiet = *quiet
	if *cacheDir != "" {
		cache, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(2)
		}
		r.Engine.Cache = cache
	}

	start := time.Now()
	var reports []experiments.Report
	if *exps == "all" {
		reports = r.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			rep, err := r.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				os.Exit(2)
			}
			reports = append(reports, rep)
		}
	}

	for _, rep := range reports {
		fmt.Println(rep.String())
	}
	fmt.Printf("paperbench: %d experiment(s) in %s (window=%d instructions)\n",
		len(reports), time.Since(start).Round(time.Millisecond), opts.Instructions)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Println("paperbench: wrote", *jsonOut)
	}

	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(experiments.CSV(reports)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Println("paperbench: wrote", *csvOut)
	}

	if *mdOut != "" {
		var b strings.Builder
		b.WriteString("# EXPERIMENTS — paper vs measured\n\n")
		fmt.Fprintf(&b, "Generated by `paperbench -instructions %d -iterations %d -mtsteps %d` on %s.\n\n",
			opts.Instructions, opts.SpectreIterations, opts.MTSteps, time.Now().Format("2006-01-02"))
		for _, rep := range reports {
			b.WriteString(rep.Markdown())
		}
		if err := os.WriteFile(*mdOut, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Println("paperbench: wrote", *mdOut)
	}

	// Individual cell failures degrade their rows to NaN instead of
	// killing the pass; surface them at the end and exit non-zero.
	if errs := r.Errors(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "paperbench: %d run(s) failed:\n", len(errs))
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "  ", err)
		}
		os.Exit(1)
	}
}

// checkCounts rejects a count below 1 before any cell runs, so each count
// has one default, its flag's, and a 0 is never run as some other number.
func checkCounts(instructions uint64, iterations, mtsteps int) error {
	switch {
	case instructions < 1:
		return errors.New("-instructions 0: want at least 1")
	case iterations < 1:
		return fmt.Errorf("-iterations %d: want at least 1", iterations)
	case mtsteps < 1:
		return fmt.Errorf("-mtsteps %d: want at least 1", mtsteps)
	}
	return nil
}

// checkSampling rejects a zero sampling interval next to -metrics-out: at
// 0 the sampler records nothing, so every series file would be empty.
// -trace-out alone needs no samples; its events come from the trace ring.
func checkSampling(every uint64, metricsOut string) error {
	if every == 0 && metricsOut != "" {
		return errors.New("-sample-every 0 records no samples for -metrics-out")
	}
	return nil
}

// exportObservability runs the nonsecure + cleanupspec pair on one workload
// with full instrumentation: a per-policy time-series file per run and one
// merged Perfetto trace whose per-policy processes put the two policies'
// squash / cleanup / exposed-window tracks side by side.
func exportObservability(wl string, instructions, sampleEvery uint64, metricsOut, traceOut string) error {
	var runs []metrics.ChromeTraceOpts
	for _, pol := range []sim.Policy{sim.NonSecure, sim.CleanupSpec} {
		col := &sim.Metrics{}
		ring := sim.NewTraceRing(1 << 17)
		cfg := sim.Config{
			Policy: pol, Instructions: instructions,
			Metrics: col, SampleEvery: sampleEvery, Trace: ring,
		}
		if _, err := sim.RunWorkload(wl, cfg); err != nil {
			return err
		}
		samples := col.Samples()
		if metricsOut != "" {
			path := insertPolicy(metricsOut, string(pol))
			if err := metrics.WriteSeriesFile(path, samples); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "paperbench: wrote %d sample(s) to %s\n", len(samples), path)
		}
		runs = append(runs, metrics.RunTrace(string(pol)+"/"+wl, ring.Events(), col))
	}
	if traceOut != "" {
		if err := metrics.WriteChromeTraceFile(traceOut, runs...); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "paperbench: wrote Perfetto trace to", traceOut)
	}
	return nil
}

// insertPolicy turns "series.jsonl" + "cleanupspec" into
// "series.cleanupspec.jsonl".
func insertPolicy(path, pol string) string {
	if i := strings.LastIndex(path, "."); i > 0 {
		return path[:i] + "." + pol + path[i:]
	}
	return path + "." + pol
}
