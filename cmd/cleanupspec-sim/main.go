// Command cleanupspec-sim runs one workload under one security policy and
// prints the full measurement record — the single-run workhorse behind the
// experiment harness. Opt-in sections inspect the run further: a phase
// plot of its time series, its latency/window histograms, and the final
// counter registry.
//
// Usage:
//
//	cleanupspec-sim -workload astar -policy cleanupspec -instructions 300000
//	cleanupspec-sim -list
//	cleanupspec-sim -workload soplex -compare   # all policies side by side
//	cleanupspec-sim -workload astar -metrics-out astar.jsonl -trace-out astar.trace.json
//	cleanupspec-sim -workload mcf -sample-every 500 -width 60 -hist all -counters
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/sim"
)

func main() {
	var (
		wl           = flag.String("workload", "astar", "workload name (see -list)")
		pol          = flag.String("policy", "cleanupspec", "policy: nonsecure, cleanupspec, invisispec-initial, invisispec-revised, delay-all, delay-on-miss, value-predict")
		instructions = flag.Uint64("instructions", 300_000, "committed instructions to measure")
		seed         = flag.Uint64("seed", 1, "randomization seed")
		list         = flag.Bool("list", false, "list workloads and policies")
		compare      = flag.Bool("compare", false, "run every policy and compare against nonsecure")
		traceN       = flag.Int("trace", 0, "dump the last N trace events after the run")
		metricsOut   = flag.String("metrics-out", "", "write the interval time series here (.csv = CSV, else JSONL)")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto) file here")
		sampleEvery  = flag.Uint64("sample-every", 1000, "metrics sampling interval in cycles")
		width        = flag.Int("width", 0, "print a phase plot of the time series this many columns wide (0 = none)")
		histPat      = flag.String("hist", "", `print histograms: "top" (non-empty ones), "all", or a name substring`)
		counters     = flag.Bool("counters", false, "dump the full final counter registry")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range sim.Workloads() {
			fmt.Println("  ", w)
		}
		fmt.Println("policies:")
		for _, p := range sim.Policies() {
			fmt.Println("  ", p)
		}
		return
	}

	if *compare {
		base, err := sim.RunWorkload(*wl, sim.Config{Policy: sim.NonSecure, Instructions: *instructions, Seed: *seed})
		check(err)
		fmt.Printf("%-20s %12s %8s %10s\n", "policy", "cycles", "IPC", "slowdown")
		fmt.Printf("%-20s %12d %8.3f %10s\n", "nonsecure", base.Cycles, base.IPC, "-")
		for _, p := range sim.Policies()[1:] {
			r, err := sim.RunWorkload(*wl, sim.Config{Policy: p, Instructions: *instructions, Seed: *seed})
			check(err)
			fmt.Printf("%-20s %12d %8.3f %+9.1f%%\n", p, r.Cycles, r.IPC,
				(float64(r.Cycles)/float64(base.Cycles)-1)*100)
		}
		return
	}

	cfg := sim.Config{Policy: sim.Policy(*pol), Instructions: *instructions, Seed: *seed}
	var ring *sim.TraceRing
	if *traceN > 0 {
		ring = sim.NewTraceRing(*traceN)
		cfg.Trace = ring
	}
	col := &sim.Metrics{}
	if *metricsOut != "" || *traceOut != "" || *width > 0 || *histPat != "" || *counters {
		cfg.Metrics = col
		cfg.SampleEvery = *sampleEvery
		if *traceOut != "" && cfg.Trace == nil {
			// The Perfetto export wants the event stream; retain a large
			// tail by default when -trace was not given.
			cfg.Trace = sim.NewTraceRing(1 << 17)
		}
	}
	r, err := sim.RunWorkload(*wl, cfg)
	check(err)
	samples := col.Samples()
	if *metricsOut != "" {
		check(metrics.WriteSeriesFile(*metricsOut, samples))
		fmt.Fprintf(os.Stderr, "cleanupspec-sim: wrote %d sample(s) to %s\n", len(samples), *metricsOut)
	}
	if *traceOut != "" {
		check(metrics.WriteChromeTraceFile(*traceOut,
			metrics.RunTrace(string(r.Policy)+"/"+r.Workload, cfg.Trace.Events(), samples)))
		fmt.Fprintf(os.Stderr, "cleanupspec-sim: wrote Perfetto trace to %s\n", *traceOut)
	}
	fmt.Printf("workload:            %s\n", r.Workload)
	fmt.Printf("policy:              %s\n", r.Policy)
	fmt.Printf("instructions:        %d\n", r.Instructions)
	fmt.Printf("cycles:              %d (IPC %.3f)\n", r.Cycles, r.IPC)
	fmt.Printf("branch mispredict:   %.2f%%\n", r.MispredictRate*100)
	fmt.Printf("L1-D miss rate:      %.2f%%\n", r.L1MissRate*100)
	fmt.Printf("squashes/kilo-inst:  %.2f\n", r.SquashPKI)
	fmt.Printf("loads per squash:    %.2f\n", r.LoadsPerSquash)
	fmt.Printf("squashed-load mix:   NI %.0f%%  L1H %.0f%%  L2H %.2f%%  L2M %.2f%%\n",
		r.SquashedPctNI, r.SquashedPctL1H, r.SquashedPctL2H, r.SquashedPctL2M)
	fmt.Printf("squashed L1-misses:  %.0f%% inflight (dropped) / %.0f%% executed (cleaned)\n",
		r.InflightFrac*100, r.ExecutedFrac*100)
	fmt.Printf("stall per squash:    %.1f wait + %.1f cleanup cycles\n", r.WaitPerSquash, r.CleanupPerSquash)
	fmt.Printf("traffic:             regular %d, invisible %d, update %d, cleanup %d, writebacks %d\n",
		r.Traffic.Regular, r.Traffic.Invisible, r.Traffic.Update, r.Traffic.Cleanup, r.Traffic.Writebacks)
	if *width > 0 || *histPat != "" || *counters {
		fmt.Println()
	}
	if *width > 0 {
		printPhasePlot(samples, *sampleEvery, *width)
	}
	if *histPat != "" {
		printHistograms(col.Registry, *histPat)
	}
	if *counters {
		fmt.Println("counters:")
		snap := col.Registry.Snapshot()
		for _, name := range stats.SortedKeys(snap.Counters) {
			fmt.Printf("  %-32s %d\n", name, snap.Counters[name])
		}
		fmt.Println()
	}
	if ring != nil {
		fmt.Printf("\ntrace (last %d of %d events):\n", len(ring.Events()), ring.Total())
		if _, err := ring.WriteTo(os.Stdout); err != nil {
			check(err)
		}
	}
}

// printPhasePlot renders the run's phase behaviour: one sparkline per
// derived series, each shrunk to at most width points.
func printPhasePlot(samples []sim.MetricSample, every uint64, width int) {
	fmt.Printf("phase plot (%d samples, every %d cycles):\n", len(samples), every)
	plot := func(label string, vals []float64) {
		vals = downsample(vals, width)
		lo, hi := stats.MinMax(vals)
		fmt.Printf("  %-14s %s  [%.3g .. %.3g]\n", label, stats.Sparkline(vals), lo, hi)
	}
	squashes := metrics.Rates(samples, "cpu.squashes")
	for i := range squashes {
		squashes[i] *= 1000
	}
	plot("IPC", metrics.Rates(samples, "cpu.committed"))
	plot("squash/kcycle", squashes)
	plot("L1D miss rate", metrics.RatioDeltas(samples, "l1d.misses", "l1d.accesses"))
	plot("L2 miss rate", metrics.RatioDeltas(samples, "l2.misses", "l2.accesses"))
	if pending := gaugeSeries(samples, "mem.pending_txns"); pending != nil {
		plot("pending txns", pending)
	}
	fmt.Println()
}

// printHistograms prints the histograms pat selects: "all", "top" (those
// that recorded anything), or those whose name contains pat.
func printHistograms(reg *metrics.Registry, pat string) {
	shown := 0
	for _, name := range reg.Names(metrics.KindHistogram) {
		h, _ := reg.HistogramByName(name)
		switch {
		case pat == "all":
		case pat == "top":
			if h.Count() == 0 {
				continue
			}
		default:
			if !strings.Contains(name, pat) {
				continue
			}
		}
		fmt.Printf("%s\n%s\n", name, indent(h.String(), "  "))
		shown++
	}
	if shown == 0 {
		fmt.Printf("no histograms matching %q recorded anything (try -hist all)\n\n", pat)
	}
}

// downsample shrinks vals to at most width points by averaging fixed-size
// groups, so long runs still fit one terminal line.
func downsample(vals []float64, width int) []float64 {
	if width <= 0 || len(vals) <= width {
		return vals
	}
	out := make([]float64, width)
	for i := range out {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi == lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// gaugeSeries returns the named gauge's value per sample, or nil when no
// sample recorded it.
func gaugeSeries(samples []sim.MetricSample, name string) []float64 {
	var out []float64
	found := false
	for _, s := range samples {
		v, ok := s.Gauges[name]
		found = found || ok
		out = append(out, v)
	}
	if !found {
		return nil
	}
	return out
}

func indent(s, by string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = by + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cleanupspec-sim:", err)
		os.Exit(1)
	}
}
