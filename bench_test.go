// Package repro's benchmark suite regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's experiment index) and reports the
// headline number of each as a benchmark metric. Run with:
//
//	go test -bench=. -benchmem
//
// One benchmark iteration regenerates the whole experiment at a reduced
// instruction window (the full-size run is `go run ./cmd/paperbench`).
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/ceaser"
	"repro/internal/experiments"
	"repro/internal/multicore"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/sim"
)

// benchOpts returns reduced experiment sizing so a full -bench=. pass stays
// in the minutes range.
func benchOpts() experiments.Options {
	return experiments.Options{Instructions: 30_000, SpectreIterations: 6, MTSteps: 8_000}
}

func newRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	r := experiments.NewRunner(benchOpts())
	r.Quiet = true
	return r
}

func BenchmarkTable1_RandomizationImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		rep := r.Table1()
		if len(rep.Tables) == 0 {
			b.Fatal("no table")
		}
	}
}

func BenchmarkTable2_CoherenceMitigations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		rep := r.Table2()
		_ = rep
	}
}

func BenchmarkTable3_WorkloadCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		_ = r.Table3()
	}
}

func BenchmarkTable5_CleanupStatistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		_ = r.Table5()
	}
}

func BenchmarkTable6_SlowdownComparison(b *testing.B) {
	var cs float64
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		rep := r.Table6()
		// Row 2 is CleanupSpec; column 1 the measured slowdown.
		var xs []float64
		for _, wl := range sim.Workloads() {
			base, _ := sim.RunWorkload(wl, sim.Config{Policy: sim.NonSecure, Instructions: benchOpts().Instructions})
			res, _ := sim.RunWorkload(wl, sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
			xs = append(xs, float64(res.Cycles)/float64(base.Cycles))
		}
		cs = stats.Slowdown(stats.Geomean(xs))
		_ = rep
	}
	b.ReportMetric(cs, "cleanupspec-slowdown-%")
}

func BenchmarkFigure4_InvisiSpecOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		_ = r.Figure4()
	}
}

func BenchmarkFigure9_LoadStateBreakdown(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		ps := workload.MTProfiles()
		for _, p := range ps {
			st := multicore.New(p, 4).Run(benchOpts().MTSteps)
			sum += st.UnsafeFrac()
		}
		avg = sum / float64(len(ps)) * 100
	}
	b.ReportMetric(avg, "unsafe-loads-%")
}

func BenchmarkFigure11_SpectrePoC(b *testing.B) {
	leakedNS, leakedCS := 0, 0
	for i := 0; i < b.N; i++ {
		ns, err := sim.RunSpectre(sim.NonSecure, benchOpts().SpectreIterations)
		if err != nil {
			b.Fatal(err)
		}
		cs, err := sim.RunSpectre(sim.CleanupSpec, benchOpts().SpectreIterations)
		if err != nil {
			b.Fatal(err)
		}
		if ns.Leaked {
			leakedNS++
		}
		if cs.Leaked {
			leakedCS++
		}
	}
	b.ReportMetric(float64(leakedNS)/float64(b.N), "nonsecure-leak-rate")
	b.ReportMetric(float64(leakedCS)/float64(b.N), "cleanupspec-leak-rate")
}

func BenchmarkFigure12_CleanupSpecSlowdown(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		var xs []float64
		for _, wl := range sim.Workloads() {
			base, err := sim.RunWorkload(wl, sim.Config{Policy: sim.NonSecure, Instructions: benchOpts().Instructions})
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.RunWorkload(wl, sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
			if err != nil {
				b.Fatal(err)
			}
			xs = append(xs, float64(res.Cycles)/float64(base.Cycles))
		}
		avg = stats.Slowdown(stats.Geomean(xs))
	}
	b.ReportMetric(avg, "slowdown-%")
}

func BenchmarkFigure13_SquashFrequency(b *testing.B) {
	var pki float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunWorkload("astar", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		pki = res.SquashPKI
	}
	b.ReportMetric(pki, "astar-squash-pki")
}

func BenchmarkFigure14_StallBreakdown(b *testing.B) {
	var wait, ops float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunWorkload("sphinx3", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		wait, ops = res.WaitPerSquash, res.CleanupPerSquash
	}
	b.ReportMetric(wait, "wait-cycles/squash")
	b.ReportMetric(ops, "cleanup-cycles/squash")
}

func BenchmarkFigure15_InflightVsExecuted(b *testing.B) {
	var inflight float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunWorkload("gobmk", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		inflight = res.InflightFrac * 100
	}
	b.ReportMetric(inflight, "inflight-%")
}

func BenchmarkStorageOverhead(b *testing.B) {
	var bytes int
	for i := 0; i < b.N; i++ {
		bytes = sim.StorageOverheadBytes()
	}
	b.ReportMetric(float64(bytes), "bytes/core")
}

// --- ablation benches (DESIGN.md section 6) ---

// BenchmarkAblation_ConstantTimeCleanup measures the cost of padding every
// cleanup stall to a constant 50 cycles (the Section 4b hardening).
func BenchmarkAblation_ConstantTimeCleanup(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		base, err := sim.RunWorkload("astar", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		padded, err := sim.RunWorkload("astar", sim.Config{
			Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions, ConstantTimeCleanup: 50,
		})
		if err != nil {
			b.Fatal(err)
		}
		slow = (float64(padded.Cycles)/float64(base.Cycles) - 1) * 100
	}
	b.ReportMetric(slow, "extra-slowdown-%")
}

// BenchmarkAblation_DelayAll measures the delay-everything upper bound
// against CleanupSpec's undo approach.
func BenchmarkAblation_DelayAll(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		cs, err := sim.RunWorkload("soplex", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		dl, err := sim.RunWorkload("soplex", sim.Config{Policy: sim.DelayAll, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		delta = float64(dl.Cycles)/float64(cs.Cycles) - 1
	}
	b.ReportMetric(delta*100, "delay-vs-cleanup-%")
}

// --- substrate microbenchmarks ---

func BenchmarkCacheLookup(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", SizeBytes: 64 << 10, Ways: 8, Repl: cache.ReplLRU, Seed: 1})
	for i := 0; i < 1024; i++ {
		c.Install(arch.LineAddr(i), arch.Exclusive, 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(arch.LineAddr(i & 1023))
	}
}

func BenchmarkCEASEREncrypt(b *testing.B) {
	ix := ceaser.New(2048, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SetIndex(arch.LineAddr(i))
	}
}

func BenchmarkPredictor(b *testing.B) {
	p := branch.New(branch.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := p.Predict(arch.Addr(i & 255))
		p.Update(ps, i&3 != 0)
	}
}

// BenchmarkSimulatorThroughput reports simulated instructions per second of
// wall time for the full pipeline under CleanupSpec.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const n = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWorkload("perl", sim.Config{Policy: sim.CleanupSpec, Instructions: n, NoWarmup: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sim-instructions/s")
}

// BenchmarkCellSetup times one short cell on lbm, the largest footprint
// (16 MB): building the hierarchy and prewarming its L2 dominate, so this
// gates the per-cell set-up that BenchmarkSimulatorThroughput's NoWarmup
// runs skip.
func BenchmarkCellSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWorkload("lbm", sim.Config{Policy: sim.CleanupSpec, Instructions: 1_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_NoMoPartition measures way-partitioning the L1 (4 of 8
// ways per SMT thread, Section 3.6): the paper reports < 2% slowdown.
func BenchmarkAblation_NoMoPartition(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		base, err := sim.RunWorkload("sphinx3", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		part, err := sim.RunWorkload("sphinx3", sim.Config{
			Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions, L1PartitionWays: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		slow = (float64(part.Cycles)/float64(base.Cycles) - 1) * 100
	}
	b.ReportMetric(slow, "nomo-slowdown-%")
}

// BenchmarkAblation_CEASERRemap measures CEASER's gradual remap running
// continuously under CleanupSpec (functional relocation; CEASER reports
// ~1% timing cost, which this model does not charge).
func BenchmarkAblation_CEASERRemap(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		base, err := sim.RunWorkload("soplex", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		remap, err := sim.RunWorkload("soplex", sim.Config{
			Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions, L2RemapEvery: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		slow = (float64(remap.Cycles)/float64(base.Cycles) - 1) * 100
	}
	b.ReportMetric(slow, "remap-slowdown-%")
}

// BenchmarkAblation_DelayOnMiss measures the Conditional Speculation filter
// against CleanupSpec (the paper claims roughly two-thirds of CS/CSF's
// slowdown, Section 7.3.2).
func BenchmarkAblation_DelayOnMiss(b *testing.B) {
	var cs, dm float64
	for i := 0; i < b.N; i++ {
		base, err := sim.RunWorkload("sphinx3", sim.Config{Policy: sim.NonSecure, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		c, err := sim.RunWorkload("sphinx3", sim.Config{Policy: sim.CleanupSpec, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		d, err := sim.RunWorkload("sphinx3", sim.Config{Policy: sim.DelayOnMiss, Instructions: benchOpts().Instructions})
		if err != nil {
			b.Fatal(err)
		}
		cs = (float64(c.Cycles)/float64(base.Cycles) - 1) * 100
		dm = (float64(d.Cycles)/float64(base.Cycles) - 1) * 100
	}
	b.ReportMetric(cs, "cleanupspec-%")
	b.ReportMetric(dm, "delay-on-miss-%")
}
