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
//	campaign inspect -cache .campaign
//	campaign fsck   -cache .campaign -prune
//
// Grids: all | paper | headline | quick (see internal/campaign.GridByName).
// The cache directory is shared with `paperbench -cache`: a paperbench
// pass warms the campaign cache and vice versa.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"

	"repro/internal/campaign"
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
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
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
  campaign status [flags]   show the last finished run's per-job status
  campaign export [flags]   dump every cached result as CSV
  campaign inspect [flags]  per-cell summaries of a cache
  campaign fsck   [flags]   scan a cache for corrupt/orphaned entries
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

status/export flags:
  -cache dir          cache directory (default ".campaign")
  -v                  (status) per-cell rows: wall time, cache hit/miss, IPC
  -csv file           export destination ("-" = stdout, the default)

inspect flags:
  -cache dir          cache directory (default ".campaign")

fsck flags:
  -cache dir          cache directory (default ".campaign")
  -prune              delete corrupt entries and orphaned temp files
                      (pruned cells simply re-simulate on the next run)

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
		}
	}

	fmt.Fprintf(os.Stderr, "campaign: grid %q: %d workload(s) x %d policy(ies) x %d seed(s) = %d job(s), %d worker(s)\n",
		grid.Name, len(grid.Workloads), len(grid.Policies), max(1, len(grid.Seeds)), len(jobs), workers(*parallel))
	results := runRecorded(eng, grid.Name, jobs)

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
	if n := len(failed) + len(quarantined); n > 0 {
		return fmt.Errorf("%d of %d jobs did not complete (rerun to retry just those cells)", n, len(results))
	}
	return nil
}

// runRecorded runs jobs on eng and, when eng has a cache, records the run
// there for `campaign status`: an earlier run's status goes before the
// pool starts, so an interrupted run leaves none, and this run's is
// written once Run returns. A status that cannot be removed or written is
// only a warning: every result is in the cache either way.
func runRecorded(eng *campaign.Engine, grid string, jobs []campaign.Job) []campaign.JobResult {
	if eng.Cache == nil {
		return eng.Run(jobs)
	}
	dir := eng.Cache.Dir()
	if err := os.Remove(campaign.StatusPath(dir)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "campaign: warning: removing the last run's status: %v\n", err)
	}
	results := eng.Run(jobs)
	if err := campaign.NewStatus(grid, results).Save(dir); err != nil {
		fmt.Fprintf(os.Stderr, "campaign: warning: %v; `campaign status` will not show this run\n", strings.TrimPrefix(err.Error(), "campaign: "))
	}
	return results
}

func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("campaign fsck", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	prune := fs.Bool("prune", false, "delete corrupt entries and orphaned temp files")
	fs.Parse(args)

	rep, err := campaign.Fsck(*cacheDir, *prune)
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

	st, err := campaign.LoadStatus(*cacheDir)
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("no finished run in %s (a run records its status when it finishes; `campaign run -cache %s` resumes from the cache)", *cacheDir, *cacheDir)
	}
	if err != nil {
		return err
	}
	done, failed, quarantined := st.Counts()
	line := fmt.Sprintf("campaign %q at %s: %d done, %d failed", st.Grid, *cacheDir, done, failed)
	if quarantined > 0 {
		line += fmt.Sprintf(", %d quarantined", quarantined)
	}
	fmt.Println(line)
	hits, misses := 0, 0
	var wall int64
	for _, rec := range st.Jobs {
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
		} else {
			fmt.Println(err)
		}
	}
	if *verbose {
		t := stats.NewTable("", "Cell", "Status", "Source", "Wall", "IPC")
		for _, rec := range st.Jobs {
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
			t.AddRow(cellName(rec.Workload, rec.Policy, rec.Seed), rec.Status, source, fmt.Sprintf("%dms", rec.MS), ipc)
		}
		fmt.Print(t.String())
	}
	for _, rec := range st.Jobs {
		switch rec.Status {
		case campaign.StatusFailed:
			fmt.Printf("  FAILED %s/%s seed %d: %s\n", rec.Workload, rec.Policy, rec.Seed, rec.Err)
		case campaign.StatusQuarantined:
			// Quarantined cells are engine faults, not bad configs — listed
			// apart from failures, with their dump.
			line := fmt.Sprintf("  QUARANTINED %s/%s seed %d: %s", rec.Workload, rec.Policy, rec.Seed, rec.Err)
			if rec.Dump != "" {
				line += " (dump: " + rec.Dump + ")"
			}
			fmt.Println(line)
		}
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("campaign export", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	csvOut := fs.String("csv", "-", "CSV destination (- = stdout)")
	fs.Parse(args)

	entries, err := cachedEntries(*cacheDir)
	if err != nil {
		return err
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

// cachedEntries returns every verified entry of the cache at dir for the
// read-only views (export, inspect), and fails when any entry is damaged
// rather than show a view short of a cell. Unlike OpenCache it never
// creates dir, so a mistyped -cache path is an error, not a new empty
// cache.
func cachedEntries(dir string) ([]campaign.Entry, error) {
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("no cache at %s", dir)
	}
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	entries, err := cache.Entries()
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("cache at %s is empty", dir)
	}
	return entries, nil
}

// resolveGrid expands a named grid with the CLI's override flags applied.
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
		if grid.Policies, err = campaign.ParsePolicies(policiesF); err != nil {
			return campaign.Grid{}, nil, err
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
