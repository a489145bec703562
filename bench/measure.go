package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/sim"
)

// options are the settings of one workload run.
type options struct {
	seed   uint64
	budget time.Duration // passes start only while they are predicted to end within it
	trace  bool
	sz     sizes
}

// report is one finished workload run.
type report struct {
	w      workload
	setups []time.Duration
	passes []*pass
	tally  tally // run-level checks; each pass keeps its own
	digest string

	// Traced runs only.
	prof     layerProfile
	profCPU  time.Duration // process CPU time over the traced passes
	put, get []time.Duration
	entryKB  float64
}

// runWorkload sets w up SetupReps times, then runs passes until the budget
// is spent, setting up again before every pass after the first: the
// host's speed drifts, so set-up times are sampled across the whole run,
// like the passes. An untraced run makes at least one pass; a traced run
// alternates untraced and traced passes and makes at least one of each.
func runWorkload(w workload, opt options) (*report, error) {
	rep := &report{w: w}
	var jobs []campaign.Job
	setUpTimed := func() error {
		runtime.GC()
		start := time.Now()
		j, err := setUp(w, opt.sz, opt.seed)
		rep.setups = append(rep.setups, time.Since(start))
		jobs = j
		return err
	}
	for i := 0; i < max(1, opt.sz.SetupReps); i++ {
		if err := setUpTimed(); err != nil {
			return nil, err
		}
	}
	minPasses := 1
	if opt.trace {
		minPasses = 2
	}
	start := time.Now()
	for {
		if len(rep.passes) > 0 {
			if err := setUpTimed(); err != nil {
				return nil, err
			}
		}
		p, err := rep.runPass(w, opt, jobs, opt.trace && len(rep.passes)%2 == 1)
		if err != nil {
			return nil, err
		}
		rep.passes = append(rep.passes, p)
		spent := time.Since(start)
		if len(rep.passes) >= minPasses && spent+spent/time.Duration(len(rep.passes)) > opt.budget {
			break
		}
	}
	rep.digest = rep.passes[0].digest
	for i, p := range rep.passes[1:] {
		rep.tally.check(p.digest == rep.digest, "pass %d (traced=%v) sim_digest %s differs from pass 0's %s", i+1, p.traced, p.digest, rep.digest)
	}
	if last := rep.lastTraced(); last != nil {
		if err := rep.timeCacheCalls(last.jobs, last.results); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (rep *report) lastTraced() *pass {
	for i := len(rep.passes) - 1; i >= 0; i-- {
		if rep.passes[i].traced {
			return rep.passes[i]
		}
	}
	return nil
}

// runPass runs one pass and its warm phase. A traced pass runs under the
// CPU profiler at its default 100 Hz.
func (rep *report) runPass(w workload, opt options, jobs []campaign.Job, traced bool) (*pass, error) {
	p := &pass{traced: traced}
	var prof bytes.Buffer
	var cpu0 time.Duration
	if traced {
		cpu0 = cpuTime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	// Each phase starts from a collected heap, as it would in a fresh
	// process, so that one phase's garbage is not collected on the next
	// one's time.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := w.run(opt.sz, jobs, traced, p)
	p.wall = time.Since(start)
	if err == nil {
		runtime.GC()
		start = time.Now()
		err = warmPhase(opt.sz, p)
		p.wall += time.Since(start)
	}
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
		rep.profCPU += cpuTime() - cpu0
	}
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		rep.prof.add(samples)
	}
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = uint64(m1.NumGC - m0.NumGC)
	p.digest = simDigest(p.results, p.text.String())
	return p, nil
}

// timeCacheCalls times Cache.Put of every result into a new cache and
// Cache.Get of every key from it.
func (rep *report) timeCacheCalls(jobs []campaign.Job, results []sim.Result) error {
	dir, err := os.MkdirTemp("", "bench-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		return err
	}
	for i, job := range jobs {
		start := time.Now()
		err := cache.Put(job, results[i], nil)
		rep.put = append(rep.put, time.Since(start))
		rep.tally.check(err == nil, "cache put %s: %v", job, err)
	}
	var size int64
	var files int
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		files++
		return nil
	})
	if err != nil {
		return err
	}
	rep.entryKB = ratio(float64(size)/1024, float64(files))
	for _, job := range jobs {
		key, err := job.Key()
		if err != nil {
			return err
		}
		start := time.Now()
		_, ok := cache.Get(key)
		rep.get = append(rep.get, time.Since(start))
		rep.tally.check(ok, "cache get %s: miss", job)
	}
	return nil
}

// total sums the run's own checks and every pass's.
func (rep *report) total() tally {
	t := tally{attempted: rep.tally.attempted, failed: rep.tally.failed, errs: rep.tally.errs}
	for _, p := range rep.passes {
		t.attempted += p.tally.attempted
		t.failed += p.tally.failed
		t.errs = append(t.errs, p.tally.errs...)
	}
	return t
}

func (rep *report) untraced() []*pass {
	var out []*pass
	for _, p := range rep.passes {
		if !p.traced {
			out = append(out, p)
		}
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind the value, printed beside it
}

// endToEnd computes the metrics a user sees, from the untraced passes.
func (rep *report) endToEnd() map[string]metric {
	un := rep.untraced()
	var walls, rates, ops []float64
	for _, p := range un {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, ratio(float64(p.instr)/1e6, p.simTime.Seconds()))
		ops = appendMillis(ops, p.ops)
	}
	var setups []float64
	for _, d := range rep.setups {
		setups = append(setups, d.Seconds())
	}
	return map[string]metric{
		"wall_s":           {quantile(walls, 0.5), "s", len(walls)},
		"sim_minstr_per_s": {quantile(rates, 0.5), "Minstr/s", len(rates)},
		"cell_ms_p50":      {quantile(ops, 0.5), "ms", len(ops)},
		"cell_ms_p90":      {quantile(ops, 0.9), "ms", len(ops)},
		"setup_s":          {quantile(setups, 0.5), "s", len(setups)},
		"peak_rss_mb":      {peakRSSMB(), "MB", 1},
	}
}

// perLayer computes the traced run's per-layer metrics: host time by layer
// from the profile, simulated work from the last traced pass's results,
// allocation and warm-cache latency from the untraced passes, and the
// direct cache calls.
func (rep *report) perLayer() map[string]metric {
	m := make(map[string]metric)
	lp := &rep.prof
	for _, l := range layers {
		m[l+".self_pct"] = metric{ratio(100*float64(lp.self[l]), float64(lp.total)), "%", lp.samples}
	}
	for _, l := range inclLayers {
		m[l+".incl_pct"] = metric{ratio(100*float64(lp.incl[l]), float64(lp.total)), "%", lp.samples}
	}
	var traced, untracedWall []float64
	for _, p := range rep.passes {
		if p.traced {
			traced = append(traced, p.wall.Seconds())
		} else {
			untracedWall = append(untracedWall, p.wall.Seconds())
		}
	}
	m["profile.samples"] = metric{float64(lp.samples), "count", lp.samples}
	m["profile.coverage"] = metric{ratio(float64(lp.total), float64(rep.profCPU)), "ratio", lp.samples}
	m["profile.cpu_s"] = metric{ratio(float64(lp.total)/1e9, float64(len(traced))), "s", len(traced)}
	m["trace.overhead"] = metric{ratio(quantile(traced, 0.5), quantile(untracedWall, 0.5)) - 1, "ratio", len(traced)}

	var results []sim.Result
	if last := rep.lastTraced(); last != nil {
		results = last.results
	}
	for name, v := range simulatedWork(results) {
		m[name] = v
	}

	var mallocs, allocated, gcs, instr float64
	var warm []float64
	un := rep.untraced()
	for _, p := range un {
		mallocs += float64(p.mallocs)
		allocated += float64(p.allocBytes)
		gcs += float64(p.gcCycles)
		instr += float64(p.instr)
		warm = appendMillis(warm, p.warm)
	}
	m["gc.allocs_per_kinstr"] = metric{ratio(mallocs, instr/1000), "count/kinstr", len(un)}
	m["gc.bytes_per_kinstr"] = metric{ratio(allocated, instr/1000), "B/kinstr", len(un)}
	m["gc.cycles_per_pass"] = metric{ratio(gcs, float64(len(un))), "count", len(un)}

	m["campaign.get_us_p50"] = metric{quantile(appendMillis(nil, rep.get), 0.5) * 1000, "us", len(rep.get)}
	m["campaign.put_us_p50"] = metric{quantile(appendMillis(nil, rep.put), 0.5) * 1000, "us", len(rep.put)}
	m["campaign.entry_kb"] = metric{rep.entryKB, "KB", len(rep.put)}
	m["campaign.warm_cell_us_p50"] = metric{quantile(warm, 0.5) * 1000, "us", len(warm)}
	m["campaign.warm_cell_us_p90"] = metric{quantile(warm, 0.9) * 1000, "us", len(warm)}

	for _, id := range paperIDs {
		var shares []float64
		for _, p := range un {
			if d, ok := p.exp[id]; ok {
				shares = append(shares, ratio(100*d.Seconds(), p.wall.Seconds()))
			}
		}
		m["experiments."+id+"_pct"] = metric{quantile(shares, 0.5), "%", len(shares)}
	}
	return m
}

// simulatedWork aggregates the simulated counters of one pass's cells.
// They are exact: the same seed gives the same values on every host. The
// core.* ratios cover the CleanupSpec cells only.
func simulatedWork(results []sim.Result) map[string]metric {
	var committed, cycles, fetched, squashes, delays, branches, mispred float64
	var loads, l1, l2, mems, dropped, l1Full, l2Full float64
	var csCommitted, csSquashes, cleanups, cleanupOps, restores, wait, cleanupCycles float64
	for _, r := range results {
		committed += float64(r.CPU.Committed)
		cycles += float64(r.CPU.Cycles)
		fetched += float64(r.CPU.Fetched)
		squashes += float64(r.CPU.Squashes)
		delays += float64(r.CPU.LoadDelayStalls)
		branches += float64(r.CPU.BranchesCommitted)
		mispred += float64(r.CPU.MispredictsCommitted)
		loads += float64(r.Mem.Loads)
		l1 += float64(r.Mem.LoadL1Hits)
		l2 += float64(r.Mem.LoadL2Hits)
		mems += float64(r.Mem.LoadMems)
		dropped += float64(r.Mem.DroppedFills)
		l1Full += float64(r.Metrics["l1d.mshr.full"])
		l2Full += float64(r.Metrics["l2.mshr.full"])
		if r.Policy == sim.CleanupSpec {
			csCommitted += float64(r.CPU.Committed)
			csSquashes += float64(r.CPU.Squashes)
			cleanups += float64(r.Metrics["cleanup.cleanups"])
			cleanupOps += float64(r.Metrics["cleanup.invals_l1"] + r.Metrics["cleanup.invals_l2"] + r.Metrics["cleanup.restores"])
			restores += float64(r.Mem.Restores)
			wait += float64(r.CPU.InflightWaitCycles)
			cleanupCycles += float64(r.CPU.CleanupOpCycles)
		}
	}
	n := len(results)
	kinstr, csKinstr := committed/1000, csCommitted/1000
	return map[string]metric{
		"cpu.ipc":                              {ratio(committed, cycles), "instr/cycle", n},
		"cpu.squash_pki":                       {ratio(squashes, kinstr), "1/kinstr", n},
		"cpu.fetch_efficiency":                 {ratio(committed, fetched), "ratio", n},
		"cpu.load_delay_stalls_pki":            {ratio(delays, kinstr), "1/kinstr", n},
		"memsys.loads_pki":                     {ratio(loads, kinstr), "1/kinstr", n},
		"memsys.l1_hit_rate":                   {ratio(l1, loads), "ratio", n},
		"memsys.l2_hit_rate":                   {ratio(l2, loads-l1), "ratio", n},
		"memsys.dram_pki":                      {ratio(mems, kinstr), "1/kinstr", n},
		"memsys.dropped_fills_pki":             {ratio(dropped, kinstr), "1/kinstr", n},
		"cache.l1d_mshr_full_pki":              {ratio(l1Full, kinstr), "1/kinstr", n},
		"cache.l2_mshr_full_pki":               {ratio(l2Full, kinstr), "1/kinstr", n},
		"core.cleanups_pki":                    {ratio(cleanups, csKinstr), "1/kinstr", n},
		"core.ops_per_cleanup":                 {ratio(cleanupOps, cleanups), "count", n},
		"core.restores_pki":                    {ratio(restores, csKinstr), "1/kinstr", n},
		"core.inflight_wait_cycles_per_squash": {ratio(wait, csSquashes), "cycles", n},
		"core.cleanup_cycles_per_squash":       {ratio(cleanupCycles, csSquashes), "cycles", n},
		"branch.mispredict_rate":               {ratio(mispred, branches), "ratio", n},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func appendMillis(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, float64(d)/float64(time.Millisecond))
	}
	return dst
}

// quantile is the q-quantile of xs, interpolated linearly between the two
// nearest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// summary renders a run's metrics for people: one line per metric with its
// unit and sample count.
func summary(rep *report, ms map[string]metric) string {
	var b bytes.Buffer
	t := rep.total()
	traced := 0
	for _, p := range rep.passes {
		if p.traced {
			traced++
		}
	}
	fmt.Fprintf(&b, "%s: %d passes (%d traced), sim_digest %s, %d/%d checks failed\n",
		rep.w.name, len(rep.passes), traced, rep.digest, t.failed, t.attempted)
	for _, e := range t.errs {
		fmt.Fprintf(&b, "  FAILED %s\n", e)
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := ms[name]
		fmt.Fprintf(&b, "  %-40s %14.6g %-12s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	return b.String()
}
