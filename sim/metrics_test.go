package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/invisispec"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestMetricsAggregatesMatchResult is the headline observability contract:
// the final interval sample's cumulative counters must agree exactly with
// the end-of-run Result — no drift between the time series and the
// aggregate record.
func TestMetricsAggregatesMatchResult(t *testing.T) {
	for _, pol := range []Policy{NonSecure, CleanupSpec} {
		col := &Metrics{}
		res, err := RunWorkload("astar", Config{
			Policy: pol, Instructions: 30_000,
			Metrics: col, SampleEvery: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		samples := col.Samples()
		if len(samples) < 2 {
			t.Fatalf("%s: only %d samples for a 30k-instruction run", pol, len(samples))
		}
		final := samples[len(samples)-1]
		if final.Cycle != res.Cycles {
			t.Fatalf("%s: final sample at cycle %d, run ended at %d", pol, final.Cycle, res.Cycles)
		}
		// The final sample's counters are exactly the Result's counter
		// snapshot (same registry, read at the same instant).
		if !reflect.DeepEqual(final.Counters, res.Metrics) {
			t.Fatalf("%s: final sample counters differ from Result.Metrics", pol)
		}
		// And the registry's counters agree with the legacy Result fields.
		checks := map[string]uint64{
			"cpu.cycles":      res.Cycles,
			"cpu.committed":   res.Instructions,
			"cpu.squashes":    res.CPU.Squashes,
			"cpu.mispredicts": res.CPU.Mispredicts,
			"mem.loads":       res.Mem.Loads,
			"mem.stores":      res.Mem.Stores,
			"traffic.regular": res.Traffic.Regular,
		}
		for name, want := range checks {
			if got := final.Counters[name]; got != want {
				t.Errorf("%s: %s = %d in final sample, Result says %d", pol, name, got, want)
			}
		}
		// Monotonicity: cumulative counters never decrease.
		for i := 1; i < len(samples); i++ {
			if samples[i].Counters["cpu.committed"] < samples[i-1].Counters["cpu.committed"] {
				t.Fatalf("%s: cpu.committed decreased between samples %d and %d", pol, i-1, i)
			}
		}
	}
}

// TestObservabilityDoesNotChangeOutcome pins the acceptance criterion that
// attaching the registry, sampler, and trace ring changes no simulation
// outcome: every Result field except the Metrics snapshot must be
// bit-identical with and without instrumentation.
func TestObservabilityDoesNotChangeOutcome(t *testing.T) {
	for _, pol := range []Policy{NonSecure, CleanupSpec, InvisiSpecRevised} {
		base := Config{Policy: pol, Instructions: 20_000, Seed: 3}
		plain, err := RunWorkload("gcc", base)
		if err != nil {
			t.Fatal(err)
		}
		instr := base
		instr.Metrics = &Metrics{}
		instr.SampleEvery = 500
		instr.Trace = NewTraceRing(1 << 12)
		wired, err := RunWorkload("gcc", instr)
		if err != nil {
			t.Fatal(err)
		}
		wired.Metrics = nil // the only field instrumentation is allowed to add
		if !reflect.DeepEqual(plain, wired) {
			t.Fatalf("%s: instrumentation changed the simulation outcome:\nplain %+v\nwired %+v", pol, plain, wired)
		}
	}
}

// TestMetricsHistograms checks the paper-specific histograms fill under
// CleanupSpec: squashed loads produce load-to-squash observations, and
// speculative fills produce exposed-window observations.
func TestMetricsHistograms(t *testing.T) {
	col := &Metrics{}
	_, err := RunWorkload("astar", Config{
		Policy: CleanupSpec, Instructions: 50_000, Metrics: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.load_to_squash_cycles", "cpu.exposed_window_cycles"} {
		h, ok := col.Registry.HistogramByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if h.Count() == 0 {
			t.Errorf("%s recorded nothing on a squash-heavy workload", name)
		}
	}
	// The restore-latency histogram exists under CleanupSpec (it may stay
	// empty on workloads whose squashed fills are all dropped in flight).
	if _, ok := col.Registry.HistogramByName("cleanup.restore_latency_cycles"); !ok {
		t.Fatal("cleanup.restore_latency_cycles not registered under CleanupSpec")
	}
}

// TestSamplerDisabledByDefault: Metrics without SampleEvery yields the
// registry but no time series.
func TestSamplerDisabledByDefault(t *testing.T) {
	col := &Metrics{}
	res, err := RunWorkload("astar", Config{Instructions: 10_000, Metrics: col})
	if err != nil {
		t.Fatal(err)
	}
	if col.Sampler != nil || col.Samples() != nil {
		t.Fatal("SampleEvery=0 must not build a sampler")
	}
	if col.Registry == nil || res.Metrics == nil {
		t.Fatal("registry must still be attached and snapshotted")
	}
}

// TestSampleShorterThanInterval: a run shorter than one interval still
// produces the final flush sample, and it matches the aggregates.
func TestSampleShorterThanInterval(t *testing.T) {
	col := &Metrics{}
	res, err := RunWorkload("astar", Config{
		Instructions: 5_000, Metrics: col, SampleEvery: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := col.Samples()
	if len(samples) != 1 {
		t.Fatalf("%d samples, want exactly the final flush", len(samples))
	}
	if samples[0].Cycle != res.Cycles || samples[0].Counters["cpu.committed"] != res.Instructions {
		t.Fatalf("flush sample %+v does not match result (%d cycles, %d instructions)",
			samples[0], res.Cycles, res.Instructions)
	}
}

// TestTraceCountersShareTheEventClock exports a warmed-up run's Perfetto
// trace: the events carry absolute cycles, the samples window-relative
// ones, so the last counter-track point must land on the last commit
// event's timestamp, not a warmup's length before it.
func TestTraceCountersShareTheEventClock(t *testing.T) {
	col := &Metrics{}
	ring := NewTraceRing(1 << 10)
	if _, err := RunWorkload("astar", Config{
		Policy: CleanupSpec, Instructions: 20_000,
		Metrics: col, SampleEvery: 1000, Trace: ring,
	}); err != nil {
		t.Fatal(err)
	}
	if col.WindowStart == 0 {
		t.Fatal("a warmed-up run's window starts at cycle 0")
	}
	var lastCommit, lastCounter uint64
	for _, e := range metrics.BuildChromeEvents(metrics.RunTrace("cleanupspec/astar", ring.Events(), col)) {
		switch {
		case e.Ph == "C":
			lastCounter = max(lastCounter, e.Ts)
		case e.Name == "commit":
			lastCommit = max(lastCommit, e.Ts)
		}
	}
	if lastCounter != lastCommit {
		t.Fatalf("last counter point at cycle %d, last commit event at %d (window start %d)", lastCounter, lastCommit, col.WindowStart)
	}
}

// unbound names the exported Stats fields the registry leaves out on
// purpose, as "<package>.<type>.<field>", with the reason.
var unbound = map[string]string{
	"cpu.Stats.Cycles": "materialized only when Run returns; the registry publishes the live value as the cpu.cycles CounterFunc",
}

// carrier is one metrics owner's Stats (or the hierarchy's Traffic), by
// its registry prefix.
type carrier struct {
	owner string
	stats any
}

// instrumented builds a machine on astar under pol, registers it through
// attachMetrics, and returns it with every metrics owner's counters.
func instrumented(t *testing.T, pol Policy) (*cpu.Machine, *memsys.Hierarchy, cpu.Policy, *metrics.Registry, []carrier) {
	t.Helper()
	prof, _ := workload.ProfileByName("astar")
	p, hcfg, err := BuildPolicy(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	h := memsys.New(hcfg)
	m := cpu.New(cpu.DefaultConfig(), prof.Build(), h, p)
	reg := metrics.NewRegistry()
	attachMetrics(reg, m, h, p)

	carriers := []carrier{
		{"cpu", &m.Stats}, {"mem", &h.Stats}, {"traffic", &h.Traffic},
		{"l1d", &h.L1(0).Stats}, {"l1d.mshr", &h.L1MSHR(0).Stats},
		{"l2", &h.L2().Stats}, {"l2.mshr", &h.L2MSHR().Stats},
		{"coh", &h.Directory().Stats}, {"dram", &h.DRAM().Stats},
	}
	switch p := p.(type) {
	case *core.CleanupSpec:
		carriers = append(carriers, carrier{"cleanup", &p.Stats})
	case *invisispec.Policy:
		carriers = append(carriers, carrier{"inv", &p.Stats})
	default:
		t.Fatalf("%s: policy %T exports no counters", pol, p)
	}
	return m, h, p, reg, carriers
}

// counter is one Stats field setCounters set: "<owner> <type>.<field>".
type counter struct {
	name  string
	value uint64
}

// setCounters gives every exported field of the carriers, but the unbound
// ones, a distinct non-zero value and returns them. declared collects the
// "<package>.<type>.<field>" name of every field.
func setCounters(t *testing.T, carriers []carrier, declared map[string]bool) []counter {
	t.Helper()
	var set []counter
	value := uint64(1_000_003)
	for _, c := range carriers {
		v := reflect.ValueOf(c.stats).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name := v.Type().String() + "." + f.Name
			declared[name] = true
			if !f.IsExported() || unbound[name] != "" {
				continue
			}
			if f.Type.Kind() != reflect.Uint64 {
				t.Errorf("%s is a %s; the test sets only uint64 counters", name, f.Type)
				continue
			}
			v.Field(i).SetUint(value)
			set = append(set, counter{c.owner + " " + name, value})
			value += 1_000_003
		}
	}
	return set
}

// TestRegistryBindsEveryStatsField builds real machines under the two
// policies that export counters, gives every exported field of each
// metrics owner's Stats (and the hierarchy's Traffic) a distinct value,
// and requires each value in the registry snapshot. A counter added to a
// Stats struct but never bound would drop out of every counter dump,
// sample series and Perfetto export; it fails here instead.
func TestRegistryBindsEveryStatsField(t *testing.T) {
	declared := make(map[string]bool)
	for _, pol := range []Policy{CleanupSpec, InvisiSpecInitial} {
		_, _, _, reg, carriers := instrumented(t, pol)
		want := setCounters(t, carriers, declared)

		snap := reg.Snapshot()
		seen := make(map[uint64]bool)
		for _, c := range snap.Counters {
			seen[c] = true
		}
		for _, g := range snap.Gauges {
			seen[uint64(g)] = true
		}
		for _, f := range want {
			if !seen[f.value] {
				t.Errorf("%s: %s is set to %d, but no registry metric reads it; bind it in its AttachMetrics", pol, f.name, f.value)
			}
		}
	}
	for name := range unbound {
		if !declared[name] {
			t.Errorf("unbound lists %s, which no metrics owner declares", name)
		}
	}
}

// TestWarmupResetZeroesEveryCounter runs real machines through part of a
// warmup, gives every counter a non-zero value, and requires resetWindow,
// runProgram's reset after the warmup, to bring every counter in the
// registry snapshot to 0. A counter it skipped would count the warmup in
// Result.Metrics, the sampled series and counter dumps, while the others
// count only the measurement window.
func TestWarmupResetZeroesEveryCounter(t *testing.T) {
	for _, pol := range []Policy{CleanupSpec, InvisiSpecInitial} {
		m, h, p, reg, carriers := instrumented(t, pol)
		m.Run(5_000)
		setCounters(t, carriers, make(map[string]bool))
		resetWindow(m, h, p)
		for name, v := range reg.Snapshot().Counters {
			if v != 0 {
				t.Errorf("%s: %s reads %d after the warmup reset, want 0", pol, name, v)
			}
		}
	}
}
