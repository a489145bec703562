package main

// `campaign inspect` reads what a campaign left behind without
// re-simulating anything: the cache view lists every cached cell's
// headline numbers and an IPC sparkline per policy; the span view (-spans)
// lists the slowest cells of a `campaign run -span-out` file and the
// per-stage wall-time breakdown.

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/sim"
)

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("campaign inspect", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	spansIn := fs.String("spans", "", "span JSONL from `campaign run -span-out` (renders the span view instead of the cache view)")
	topN := fs.Int("top", 10, "with -spans: how many slowest cells to list")
	fs.Parse(args)

	if *spansIn != "" {
		return spanView(*spansIn, *topN)
	}

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

	t := stats.NewTable(fmt.Sprintf("%d cached cell(s) at %s", len(entries), *cacheDir),
		"Cell", "IPC", "Squash/KI", "L1 miss", "Traffic")
	for _, e := range entries {
		t.AddRow(cellName(e.Workload, e.Policy, e.Variant, e.Seed),
			fmt.Sprintf("%.3f", e.Result.IPC),
			fmt.Sprintf("%.2f", e.Result.SquashPKI),
			fmt.Sprintf("%.2f%%", e.Result.L1MissRate*100),
			fmt.Sprintf("%d", e.Result.Traffic.Total()))
	}
	fmt.Println(t.String())

	// Per-policy IPC profile across workloads (seed 1, base variant).
	byPolicy := make(map[string]map[string]float64)
	for _, e := range entries {
		if e.Variant != "" || e.Seed != 1 {
			continue
		}
		if byPolicy[string(e.Policy)] == nil {
			byPolicy[string(e.Policy)] = make(map[string]float64)
		}
		byPolicy[string(e.Policy)][e.Workload] = e.Result.IPC
	}
	if len(byPolicy) > 0 {
		fmt.Println("IPC across workloads (sorted by name):")
		for _, p := range stats.SortedKeys(byPolicy) {
			cells := byPolicy[p]
			var vals []float64
			for _, wl := range stats.SortedKeys(cells) {
				vals = append(vals, cells[wl])
			}
			lo, hi := stats.MinMax(vals)
			fmt.Printf("  %-20s %s  [%.3f .. %.3f] over %d workload(s)\n",
				p, stats.Sparkline(vals), lo, hi, len(vals))
		}
	}
	return nil
}

// cellName labels a cell the way progress lines do: workload/policy, then
// the variant and any seed above 1.
func cellName(workload string, pol sim.Policy, variant string, seed uint64) string {
	cell := workload + "/" + string(pol)
	if variant != "" {
		cell += "/" + variant
	}
	if seed > 1 {
		cell += fmt.Sprintf("/seed%d", seed)
	}
	return cell
}

// spanView renders the top-N slowest cells (root spans) and the per-stage
// wall-time breakdown (cache-probe vs simulate vs verify vs
// journal-append) aggregated across every cell in the span file.
func spanView(path string, topN int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("span file %s is empty", path)
	}

	// Roots are the cells; children are the stages. Same-named stages
	// (higher Seq) fold into one stage bucket.
	type cell struct {
		name  string
		durNs int64
	}
	var cells []cell
	var totalNs, totalStageNs int64
	stageNs := make(map[string]int64)
	stageCount := make(map[string]int)
	for _, s := range spans {
		if s.Parent == 0 {
			cells = append(cells, cell{name: s.Name, durNs: s.DurNs})
			totalNs += s.DurNs
			continue
		}
		stageNs[s.Name] += s.DurNs
		stageCount[s.Name]++
		totalStageNs += s.DurNs
	}
	if len(cells) == 0 {
		return fmt.Errorf("span file %s has no root spans", path)
	}
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].durNs != cells[j].durNs {
			return cells[i].durNs > cells[j].durNs
		}
		return cells[i].name < cells[j].name
	})
	topN = min(topN, len(cells))

	t := stats.NewTable(fmt.Sprintf("%d cell(s) in %s, %d slowest", len(cells), path, topN),
		"Cell", "Wall", "Share")
	for _, c := range cells[:topN] {
		t.AddRow(c.name, fmtNs(c.durNs), share(c.durNs, totalNs))
	}
	fmt.Println(t.String())

	st := stats.NewTable("stage breakdown (all cells)", "Stage", "Spans", "Wall", "Share")
	for _, name := range stats.SortedKeys(stageNs) {
		st.AddRow(name, fmt.Sprintf("%d", stageCount[name]), fmtNs(stageNs[name]), share(stageNs[name], totalStageNs))
	}
	fmt.Println(st.String())
	return nil
}

// share renders part/total as a percentage (0.0% when total is 0).
func share(part, total int64) string {
	s := 0.0
	if total > 0 {
		s = float64(part) / float64(total)
	}
	return fmt.Sprintf("%.1f%%", s*100)
}

// fmtNs renders a wall-clock duration at ms precision (span durations are
// ns, but cell walls are tens to hundreds of ms).
func fmtNs(ns int64) string {
	return fmt.Sprintf("%.1fms", float64(ns)/1e6)
}
