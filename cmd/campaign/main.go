// Command campaign runs experiment grids (workload × policy × seed) on a
// parallel worker pool with a durable, content-addressed result cache, so
// interrupted or re-tweaked campaigns only simulate the cells that are
// actually missing.
//
// Usage:
//
//	campaign run    -grid all -parallel 4 -cache .campaign
//	campaign run    -grid headline -seeds 1..5 -csv results.csv
//	campaign run    -workloads astar,gcc -policies nonsecure,cleanupspec
//	campaign status -cache .campaign
//	campaign export -cache .campaign -csv all.csv
//	campaign fsck   -cache .campaign -prune
//
// Grids: all | paper | headline | quick (see internal/campaign.GridByName).
// The cache directory is shared with `paperbench -cache`: a paperbench
// pass warms the campaign cache and vice versa.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
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
	case "status":
		err = cmdStatus(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		// Package-level errors already carry the "campaign: " prefix;
		// don't double it.
		fmt.Fprintln(os.Stderr, "campaign:", strings.TrimPrefix(err.Error(), "campaign: "))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  campaign run    [flags]   expand a grid and run the missing cells
  campaign status [flags]   show per-job status from a cache's manifest
  campaign export [flags]   dump every cached result as CSV
  campaign fsck   [flags]   scan a cache for corrupt/orphaned entries
  campaign gc     [flags]   evict cache entries by age / grid membership
  campaign replay [flags] <dump>  re-run a quarantined cell, full-depth trace

run flags:
  -grid name          predefined grid: %s (default "headline")
  -workloads a,b      override the grid's workload list
  -policies p,q       override the grid's policy list (see below)
  -seeds 1..5|1,7,42  seed sweep (default: seed 1)
  -instructions N     measurement window (default 150000)
  -parallel N         worker count (default GOMAXPROCS = %d)
  -cache dir          durable result cache (default ".campaign"; "" = memory only)
  -csv file           write per-cell results as CSV ("-" = stdout)
  -q                  suppress progress lines
  -http addr          serve /status and /metrics during the run (e.g. :8080)
  -http-linger dur    keep the -http server up after the run (CI scrapes)
  -span-out file      write the run's span trace as JSONL
  -span-trace file    write the run's span trace as Chrome trace JSON

status/export flags:
  -cache dir          cache directory (default ".campaign")
  -v                  (status) per-cell rows: wall time, cache hit/miss, IPC
  -csv file           export destination ("-" = stdout, the default)

fsck flags:
  -cache dir          cache directory (default ".campaign")
  -prune              delete corrupt entries and orphaned temp files
                      (pruned cells simply re-simulate on the next run)
  -deep               cross-check manifest journal rows against cache
                      entries in both directions (done rows without a
                      backing entry; entries without a journal row)

gc flags:
  -cache dir          cache directory (default ".campaign")
  -max-age dur        evict entries older than this (e.g. 720h)
  -grid name          evict entries not in this grid (honors -workloads,
                      -policies, -seeds, -instructions)
  -dry-run            report what would be evicted, touch nothing

replay flags:
  -depth N            replay trace capacity in events (default %d)
  -trace-out file     write the replay's full event trace ("-" = stdout)

policies: %s
`, strings.Join(campaign.GridNames(), "|"), runtime.GOMAXPROCS(0),
		campaign.ReplayDepth, policyNames())
}

func policyNames() string {
	var names []string
	for _, p := range sim.Policies() {
		names = append(names, string(p))
	}
	return strings.Join(names, " ")
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	var (
		gridName     = fs.String("grid", "headline", "predefined grid: "+strings.Join(campaign.GridNames(), "|"))
		workloadsF   = fs.String("workloads", "", "comma-separated workload override")
		policiesF    = fs.String("policies", "", "comma-separated policy override")
		seedsF       = fs.String("seeds", "", "seed sweep: inclusive range 1..5 or list 1,7,42")
		instructions = fs.Uint64("instructions", 150_000, "committed instructions per measurement window")
		parallel     = fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
		cacheDir     = fs.String("cache", ".campaign", "result cache directory (empty = memory only)")
		csvOut       = fs.String("csv", "", "write per-cell results as CSV to this file (- = stdout)")
		quiet        = fs.Bool("q", false, "suppress progress lines")
		httpAddr     = fs.String("http", "", "serve /status and /metrics on this address while the campaign runs (e.g. :8080)")
		httpLinger   = fs.Duration("http-linger", 0, "keep the -http server up this long after the run finishes")
		spanOut      = fs.String("span-out", "", "write the run's span trace as JSONL to this file")
		spanTrace    = fs.String("span-trace", "", "write the run's span trace as Chrome trace JSON to this file")
	)
	fs.Parse(args)

	grid, jobs, err := resolveGrid(*gridName, *workloadsF, *policiesF, *seedsF, *instructions)
	if err != nil {
		return err
	}

	eng := campaign.NewEngine()
	eng.Workers = *parallel
	if !*quiet {
		eng.Reporter = campaign.NewReporter(os.Stderr)
	}
	if *cacheDir != "" {
		cache, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			// Graceful degradation: an unopenable cache dir (bad perms,
			// read-only volume) should not stop the science — run
			// memory-only and say so.
			fmt.Fprintf(os.Stderr, "campaign: warning: %v; running without a cache\n", err)
		} else {
			if !*quiet {
				cache.Warn = func(msg string) { fmt.Fprintln(os.Stderr, "campaign: warning:", msg) }
			}
			eng.Cache = cache
			m, ok := campaign.LoadManifest(*cacheDir)
			if !ok {
				m = campaign.NewManifest(*cacheDir, grid.Name)
			}
			m.Grid = grid.Name
			eng.Manifest = m
		}
	}

	// Any observability flag turns the span plane on; with none set the
	// engine keeps its zero-alloc untraced hot path.
	var sink *obs.Sink
	if *httpAddr != "" || *spanOut != "" || *spanTrace != "" {
		sink = obs.NewSink()
		eng.Trace = obs.NewTracer(sink)
	}
	if *httpAddr != "" {
		if err := serveHTTP(*httpAddr, eng, sink); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "campaign: grid %q: %d workload(s) x %d policy(ies) x %d seed(s) = %d job(s), %d worker(s)\n",
		grid.Name, len(grid.Workloads), len(grid.Policies), max(1, len(grid.Seeds)), len(jobs), workers(*parallel))
	results := eng.Run(jobs)

	if sink != nil {
		if err := writeSpans(sink, *spanOut, *spanTrace); err != nil {
			return err
		}
	}

	fmt.Println(campaign.SummaryTable(results).String())

	if *csvOut != "" {
		w := os.Stdout
		if *csvOut != "-" {
			f, err := os.Create(*csvOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := campaign.ResultsCSV(w, results); err != nil {
			return err
		}
		if *csvOut != "-" {
			fmt.Fprintln(os.Stderr, "campaign: wrote", *csvOut)
		}
	}

	failed := campaign.Failed(results)
	quarantined := campaign.Quarantined(results)
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d job(s) failed:\n", len(failed))
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", r.Job, r.Err)
		}
	}
	if len(quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d job(s) quarantined (worker panic, see dumps):\n", len(quarantined))
		for _, r := range quarantined {
			line := fmt.Sprintf("  %s: %v", r.Job, r.Err)
			if r.DumpPath != "" {
				line += " (dump: " + r.DumpPath + ")"
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	// Linger after the results are final, so a scraper (the CI smoke
	// test) can read the end-of-run /status and /metrics deterministically.
	if *httpAddr != "" && *httpLinger > 0 {
		fmt.Fprintf(os.Stderr, "campaign: run finished; serving for another %s\n", *httpLinger)
		time.Sleep(*httpLinger)
	}
	if n := len(failed) + len(quarantined); n > 0 {
		return fmt.Errorf("%d of %d jobs did not complete (rerun to retry just those cells)", n, len(results))
	}
	return nil
}

// serveHTTP starts the observability endpoints in the background:
// /status (per-cell manifest state as JSON) and /metrics (text
// exposition of the span-sink counters plus live job-state gauges).
func serveHTTP(addr string, eng *campaign.Engine, sink *obs.Sink) error {
	reg := metrics.NewRegistry()
	sink.AttachMetrics(reg)
	if m := eng.Manifest; m != nil {
		// Live job-state gauges read the manifest under its own lock, so
		// scrapes mid-run see a consistent snapshot.
		count := func(pick func(p, d, f, q int) int) func() float64 {
			return func() float64 {
				p, d, f, q := m.Counts()
				return float64(pick(p, d, f, q))
			}
		}
		reg.GaugeFunc("campaign.jobs_pending", count(func(p, _, _, _ int) int { return p }))
		reg.GaugeFunc("campaign.jobs_done", count(func(_, d, _, _ int) int { return d }))
		reg.GaugeFunc("campaign.jobs_failed", count(func(_, _, f, _ int) int { return f }))
		reg.GaugeFunc("campaign.jobs_quarantined", count(func(_, _, _, q int) int { return q }))
	}
	mux := http.NewServeMux()
	mux.Handle("/status", obs.StatusHandler(func() any {
		if eng.Manifest == nil {
			return campaign.StatusSnapshot{}
		}
		return eng.Manifest.Status()
	}))
	mux.Handle("/metrics", obs.MetricsHandler(reg.Snapshot))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("campaign: -http %s: %w", addr, err)
	}
	fmt.Fprintf(os.Stderr, "campaign: serving /status and /metrics on http://%s\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "campaign: http server:", err)
		}
	}()
	return nil
}

// writeSpans exports the collected span trace: JSONL in canonical span
// order (wall-clock durations preserved — only the order is normalized)
// and/or Chrome trace JSON for the Perfetto UI.
func writeSpans(sink *obs.Sink, jsonlPath, chromePath string) error {
	spans := sink.Spans()
	obs.SortCanonical(spans)
	if st := sink.Stats(); st.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "campaign: warning: span sink dropped %d span(s) (cap %d)\n", st.Dropped, sink.MaxSpans)
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		if err := obs.WriteJSONL(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "campaign: wrote %d span(s) to %s\n", len(spans), jsonlPath)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := metrics.WriteChromeEvents(f, obs.ChromeEvents(spans, 1)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "campaign: wrote Chrome trace to", chromePath)
	}
	return nil
}

func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("campaign fsck", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	prune := fs.Bool("prune", false, "delete corrupt entries and orphaned temp files")
	deep := fs.Bool("deep", false, "cross-check manifest journal rows against cache entries")
	fs.Parse(args)

	rep, err := campaign.FsckWith(*cacheDir, campaign.FsckOptions{Prune: *prune, Deep: *deep})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if !rep.Clean() && !*prune {
		return fmt.Errorf("cache at %s has damage (rerun with -prune to repair; pruned cells re-simulate)", *cacheDir)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	verbose := fs.Bool("v", false, "per-cell rows: wall time, cache hit/miss, IPC")
	fs.Parse(args)

	m, ok := campaign.LoadManifest(*cacheDir)
	if !ok {
		return fmt.Errorf("no manifest at %s (run `campaign run -cache %s` first)", campaign.ManifestPath(*cacheDir), *cacheDir)
	}
	pending, done, failed, quarantined := m.Counts()
	line := fmt.Sprintf("campaign %q at %s: %d done, %d failed, %d pending", m.Grid, *cacheDir, done, failed, pending)
	if quarantined > 0 {
		line += fmt.Sprintf(", %d quarantined", quarantined)
	}
	fmt.Println(line)
	records := m.Records()
	hits, misses := 0, 0
	var wall int64
	for _, rec := range records {
		if rec.Status != campaign.StatusDone {
			continue
		}
		if rec.Cached {
			hits++
		} else {
			misses++
		}
		wall += rec.MS
	}
	fmt.Printf("last run: %d cache hit(s), %d simulated, %.1fs total wall time\n", hits, misses, float64(wall)/1000)
	if cache, err := campaign.OpenCache(*cacheDir); err == nil {
		if n, err := cache.Len(); err == nil {
			fmt.Printf("cache: %d result file(s)\n", n)
		}
	}
	if *verbose {
		t := stats.NewTable("", "Cell", "Status", "Source", "Wall", "IPC")
		for _, rec := range records {
			cell := rec.Workload + "/" + string(rec.Policy)
			if rec.Variant != "" {
				cell += "/" + rec.Variant
			}
			if rec.Seed > 1 {
				cell += fmt.Sprintf("/seed%d", rec.Seed)
			}
			source := "-"
			if rec.Status == campaign.StatusDone {
				source = "sim"
				if rec.Cached {
					source = "cache"
				}
			}
			ipc := "-"
			if rec.IPC > 0 {
				ipc = fmt.Sprintf("%.3f", rec.IPC)
			}
			t.AddRow(cell, rec.Status, source, fmt.Sprintf("%dms", rec.MS), ipc)
		}
		fmt.Print(t.String())
	}
	for _, rec := range m.Failures() {
		fmt.Printf("  FAILED %s/%s seed %d: %s\n", rec.Workload, rec.Policy, rec.Seed, rec.Err)
	}
	// Quarantined cells are engine faults, not bad configs — listed
	// separately with their reason and dump so the distinction is visible.
	for _, rec := range m.Quarantined() {
		line := fmt.Sprintf("  QUARANTINED %s/%s seed %d: %s", rec.Workload, rec.Policy, rec.Seed, rec.Err)
		if rec.Dump != "" {
			line += " (dump: " + rec.Dump + ")"
		}
		fmt.Println(line)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("campaign export", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	csvOut := fs.String("csv", "-", "CSV destination (- = stdout)")
	fs.Parse(args)

	cache, err := campaign.OpenCache(*cacheDir)
	if err != nil {
		return err
	}
	entries, err := cache.Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("cache at %s is empty", *cacheDir)
	}
	w := os.Stdout
	if *csvOut != "-" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := campaign.EntriesCSV(w, entries); err != nil {
		return err
	}
	if *csvOut != "-" {
		fmt.Fprintf(os.Stderr, "campaign: exported %d result(s) to %s\n", len(entries), *csvOut)
	}
	return nil
}

// resolveGrid expands a named grid with the CLI's override flags applied
// — the shared front half of `campaign run` and `campaign gc -grid`.
func resolveGrid(gridName, workloadsF, policiesF, seedsF string, instructions uint64) (campaign.Grid, []campaign.Job, error) {
	seeds, err := campaign.ParseSeeds(seedsF)
	if err != nil {
		return campaign.Grid{}, nil, err
	}
	grid, err := campaign.GridByName(gridName, instructions, seeds)
	if err != nil {
		return campaign.Grid{}, nil, err
	}
	if workloadsF != "" {
		grid.Workloads = campaign.ParseList(workloadsF)
		for _, wl := range grid.Workloads {
			if _, ok := workloadKnown(wl); !ok {
				return campaign.Grid{}, nil, fmt.Errorf("unknown workload %q (valid: %s)", wl, strings.Join(sim.Workloads(), " "))
			}
		}
	}
	if policiesF != "" {
		grid.Policies = nil
		for _, p := range campaign.ParseList(policiesF) {
			grid.Policies = append(grid.Policies, sim.Policy(p))
		}
	}
	jobs := grid.Jobs()
	if len(jobs) == 0 {
		return campaign.Grid{}, nil, fmt.Errorf("grid %q expanded to zero jobs", grid.Name)
	}
	return grid, jobs, nil
}

func workloadKnown(name string) (string, bool) {
	for _, wl := range sim.Workloads() {
		if wl == name {
			return wl, true
		}
	}
	return "", false
}

func workers(parallel int) int {
	if parallel > 0 {
		return parallel
	}
	return runtime.GOMAXPROCS(0)
}
