package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/sim"
)

// sizes fixes how much work one pass of each workload does. fullSizes is
// what the benchmark measures; the smoke test shrinks it.
type sizes struct {
	SquashWindow uint64 // measurement window of each squash-heavy cell
	MemWindow    uint64 // measurement window of each mem-bound cell
	Paper        experiments.Options
	PaperIDs     []string // experiments paper-repro runs, in this order
	MaxCells     int      // keep only the first MaxCells cells (0: all)
	WarmPasses   int      // fresh-engine passes over the warm cache
	SetupReps    int      // set-ups before the first pass; setup_s is the median of all
}

// paperIDs is experiments.Runner.All's order.
var paperIDs = []string{"table1", "table2", "table3", "table5", "table6", "table6x",
	"fig4", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15", "storage", "mp2"}

// fullSizes puts one pass of every workload at 4-8 s on a 2-CPU host, so
// that a 40 s run takes the median of five to nine passes. The paper
// experiments run at a 15k window instead of paperbench's 150k for the
// same reason: a 150k reproduction takes about 40 s.
var fullSizes = sizes{
	SquashWindow: 400_000,
	MemWindow:    300_000,
	Paper:        experiments.Options{Instructions: 15_000, SpectreIterations: 30, MTSteps: 30_000},
	PaperIDs:     paperIDs,
	WarmPasses:   10,
	SetupReps:    8,
}

// primeWindow is the window of the one-off run that set-up makes on every
// workload profile a pass simulates: it pays for building the program and
// the hierarchy and prewarming the L2, and leaves the cells to be timed
// warm.
const primeWindow = 1_000

// workload is one input set of the benchmark.
type workload struct {
	name string
	why  string
	// jobs lists the cells a pass simulates and re-serves warm, derived
	// from the seed.
	jobs func(sz sizes, seed uint64) []campaign.Job
	// run executes one pass's operations (the warm phase follows).
	run func(sz sizes, jobs []campaign.Job, traced bool, p *pass) error
}

var workloads = []workload{
	{
		name: "squash-heavy",
		why:  "Table 3's highest mispredict rates with small footprints: squash/refetch, the predictor and CleanupSpec's cleanup dominate; memsys and DRAM are light",
		jobs: func(sz sizes, seed uint64) []campaign.Job {
			return grid(sz, []string{"astar", "gobmk", "sjeng", "bzip2", "perl", "povray"},
				[]sim.Policy{sim.NonSecure, sim.CleanupSpec}, sz.SquashWindow, seed)
		},
		run: runCells,
	},
	{
		name: "mem-bound",
		why:  "highest L1 miss rates, footprints larger than the 2 MB L2: memsys, MSHRs, DRAM and per-load allocation dominate; squashes and cleanups are near zero",
		jobs: func(sz sizes, seed uint64) []campaign.Job {
			return grid(sz, []string{"lbm", "libq", "milc", "soplex", "mcf"},
				[]sim.Policy{sim.CleanupSpec, sim.InvisiSpecRevised, sim.DelayAll}, sz.MemWindow, seed)
		},
		run: runCells,
	},
	{
		name: "paper-repro",
		why:  "the product: experiments.Runner regenerates the paper's tables and figures; short cells make per-cell set-up weigh, and only it runs the ablations, multicore, Spectre and SMT",
		// The runner simulates its own cells; these are the Table 6 cells,
		// which its memo holds afterwards. The runner fixes its own seed.
		jobs: func(sz sizes, _ uint64) []campaign.Job {
			return grid(sz, sim.Workloads(), []sim.Policy{sim.NonSecure, sim.CleanupSpec, sim.InvisiSpecInitial, sim.InvisiSpecRevised},
				sz.Paper.Instructions, 0)
		},
		run: runPaper,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// grid crosses profiles with policies into cells, workload-major.
func grid(sz sizes, names []string, pols []sim.Policy, window, seed uint64) []campaign.Job {
	var jobs []campaign.Job
	for _, wl := range names {
		for _, p := range pols {
			jobs = append(jobs, campaign.Job{Workload: wl, Config: sim.Config{Policy: p, Instructions: window, Seed: seed}})
		}
	}
	return truncate(jobs, sz.MaxCells)
}

func truncate(jobs []campaign.Job, n int) []campaign.Job {
	if n > 0 && len(jobs) > n {
		return jobs[:n]
	}
	return jobs
}

// setUp prepares one run of w: the cell list, and one short run of every
// workload profile in it.
func setUp(w workload, sz sizes, seed uint64) ([]campaign.Job, error) {
	jobs := w.jobs(sz, seed)
	primed := make(map[string]bool)
	for _, j := range jobs {
		if primed[j.Workload] {
			continue
		}
		primed[j.Workload] = true
		if _, err := sim.RunWorkload(j.Workload, sim.Config{Instructions: primeWindow, Seed: seed}); err != nil {
			return nil, fmt.Errorf("priming %s: %w", j.Workload, err)
		}
	}
	return jobs, nil
}

// tally counts the operations and checks of a run and keeps the reason for
// every failure.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// pass is what one pass of a workload did and how long it took. Wall-clock
// values live only in the time fields; digest is computed from simulated
// results and report text alone.
type pass struct {
	traced bool

	wall    time.Duration
	ops     []time.Duration          // one per simulated cell
	simTime time.Duration            // host time of the operations that simulate
	instr   uint64                   // committed instructions simulated, warmup included
	warm    []time.Duration          // one per cell served from the warm cache
	exp     map[string]time.Duration // paper-repro: time of each experiment

	jobs    []campaign.Job
	results []sim.Result
	dir     string          // the warm cache's temporary directory, removed after the pass
	text    strings.Builder // paper-repro report text
	digest  string

	mallocs, allocBytes, gcCycles uint64
	tally                         tally
}

// runCells simulates each cell through sim.RunWorkload, one after another.
func runCells(_ sizes, jobs []campaign.Job, traced bool, p *pass) error {
	start := time.Now()
	for _, job := range jobs {
		cfg := job.Config
		if traced {
			cfg.Metrics = &sim.Metrics{}
		}
		t0 := time.Now()
		res, err := sim.RunWorkload(job.Workload, cfg)
		p.ops = append(p.ops, time.Since(t0))
		if err == nil && (res.Instructions < cfg.Instructions || res.Cycles == 0) {
			err = fmt.Errorf("committed %d of %d instructions in %d cycles", res.Instructions, cfg.Instructions, res.Cycles)
		}
		p.tally.check(err == nil, "%s: %v", job, err)
		p.instr += committed(job, res)
		p.results = append(p.results, res)
	}
	p.simTime = time.Since(start)
	p.jobs = jobs
	return nil
}

// runPaper calls each experiment through Runner.ByID on one memory-only
// runner, and checks the paper's qualitative results. The runner's cells
// cannot be timed one by one from outside, so each cell an experiment
// simulates is given that experiment's time per cell; experiments that
// only read the runner's memo or run no single-core cells (Table 2,
// Figures 9 and 11, mp2) add no cells.
func runPaper(sz sizes, jobs []campaign.Job, _ bool, p *pass) error {
	r := experiments.NewRunner(sz.Paper)
	r.Quiet = true
	r.Engine.Workers = 1
	p.exp = make(map[string]time.Duration)
	for _, id := range sz.PaperIDs {
		sims := r.Engine.Simulations()
		start := time.Now()
		rep, err := byID(r, id)
		d := time.Since(start)
		p.exp[id] = d
		if n := r.Engine.Simulations() - sims; n > 0 {
			p.simTime += d
			for i := int64(0); i < n; i++ {
				p.ops = append(p.ops, d/time.Duration(n))
			}
		}
		p.tally.check(err == nil, "experiment %s: %v", id, err)
		p.text.WriteString(rep.String())
		checkReport(rep, &p.tally)
	}
	p.tally.check(len(r.Errors()) == 0, "runner errors: %v", r.Errors())
	// Every Runner cell commits its resolved warmup plus the window.
	w := sz.Paper.Instructions
	p.instr = uint64(r.Engine.Simulations()) * (sim.Config{Instructions: w}.Resolved().Warmup + w)
	// With table6 run, the memo serves these without simulating.
	for _, job := range jobs {
		res, _, err := r.Engine.RunOne(job)
		p.tally.check(err == nil, "%s: %v", job, err)
		p.results = append(p.results, res)
	}
	p.jobs = jobs
	return nil
}

// byID runs one experiment. Figure 11 panics when its attack fails to run,
// so a panic is turned into the experiment's error and counted as a
// failure rather than ending the run.
func byID(r *experiments.Runner, id string) (rep experiments.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return r.ByID(id)
}

// checkReport holds the paper's qualitative results: the Spectre PoC leaks
// on the unprotected core and not under CleanupSpec, and Table 6 orders
// CleanupSpec < InvisiSpec-revised < InvisiSpec-initial.
func checkReport(rep experiments.Report, t *tally) {
	switch rep.ID {
	case "fig11":
		notes := strings.Join(rep.Notes, "\n")
		t.check(strings.Contains(notes, "NonSecure: LEAKED") && strings.Contains(notes, "CleanupSpec: no leak."),
			"fig11 verdicts: %s", notes)
	case "table6":
		slow := make(map[string]float64)
		if len(rep.Tables) > 0 {
			rows, err := csv.NewReader(strings.NewReader(rep.Tables[0].CSV())).ReadAll()
			if err == nil {
				for _, row := range rows {
					if len(row) < 2 {
						continue
					}
					if v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64); err == nil {
						slow[row[0]] = v
					}
				}
			}
		}
		cs, rev, ini := slow["CleanupSpec"], slow["InvisiSpec (revised)"], slow["InvisiSpec (initial estimates)"]
		t.check(len(slow) == 3 && cs < rev && rev < ini,
			"table6 order: CleanupSpec %.1f%%, InvisiSpec revised %.1f%%, initial %.1f%%", cs, rev, ini)
	}
}

// committed returns the instructions a cell committed: its warmup, which
// sim.Config resolves, and its window.
func committed(job campaign.Job, res sim.Result) uint64 {
	return job.Config.Resolved().Warmup + res.Instructions
}

// warmPhase stores the pass's results in a new on-disk cache, then serves
// every cell from it through fresh engines, as a warm `campaign run`
// rerun does.
func warmPhase(sz sizes, p *pass) error {
	dir, err := os.MkdirTemp("", "bench-warm-")
	if err != nil {
		return err
	}
	p.dir = dir
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		return err
	}
	for i, job := range p.jobs {
		if err := cache.Put(job, p.results[i], nil); err != nil {
			return err
		}
	}
	want := make([][]byte, len(p.results))
	for i, res := range p.results {
		want[i], _ = json.Marshal(res)
	}
	for i := 0; i < sz.WarmPasses; i++ {
		eng := campaign.NewEngine()
		eng.Workers = 1
		eng.Cache = cache
		rs := eng.Run(p.jobs)
		p.tally.check(eng.Simulations() == 0, "warm pass %d simulated %d cells", i, eng.Simulations())
		for j, r := range rs {
			p.warm = append(p.warm, r.Elapsed)
			got, _ := json.Marshal(r.Result)
			p.tally.check(!r.Failed() && r.Cached && bytes.Equal(got, want[j]), "warm %s: served a different result (%v)", r.Job, r.Err)
		}
	}
	return nil
}

// simDigest hashes what a pass simulated: every result without its metric
// snapshot (which only traced runs carry), then the report text.
func simDigest(results []sim.Result, text string) string {
	h := sha256.New()
	for _, res := range results {
		res.Metrics = nil
		blob, _ := json.Marshal(res)
		h.Write(blob)
	}
	h.Write([]byte(text))
	return hex.EncodeToString(h.Sum(nil))
}
