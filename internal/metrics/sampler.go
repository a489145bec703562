package metrics

// Sample is one interval snapshot: the cumulative counter values and the
// instantaneous gauge readings at a (measurement-window-relative) cycle.
// Counters are cumulative, not per-interval, so the final sample of a run
// agrees exactly with the end-of-run aggregates; consumers derive
// per-interval rates by differencing consecutive samples (see Rates).
type Sample struct {
	Cycle    uint64             `json:"cycle"`
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Sampler snapshots a registry every Every cycles. It is driven by the
// core's cycle loop (cpu.Machine calls Tick once per cycle with the
// window-relative cycle number) and flushed once at the end of the run so
// the final, possibly partial interval is never lost. A nil *Sampler is a
// valid disabled sampler: Tick and Flush are no-ops.
type Sampler struct {
	reg     *Registry
	every   uint64
	next    uint64
	samples []Sample
}

// NewSampler creates a sampler that snapshots reg every `every` cycles.
// every == 0 returns nil — the disabled sampler — so callers can pass a
// configuration value straight through.
func NewSampler(reg *Registry, every uint64) *Sampler {
	if every == 0 {
		return nil
	}
	return &Sampler{reg: reg, every: every, next: every}
}

// Tick observes that the simulation reached cycle (window-relative). When
// the cycle crosses the next interval boundary a snapshot is taken. Tick
// is called once per simulated cycle, so the boundary is normally hit
// exactly; a first call past the boundary (sampler attached late) samples
// immediately and re-anchors.
func (s *Sampler) Tick(cycle uint64) {
	if s == nil || cycle < s.next {
		return
	}
	s.take(cycle)
	s.next = cycle + s.every
}

// Flush records the final partial interval at the run's last cycle. It is
// idempotent for a given cycle: if the last sample already sits at
// finalCycle (the run ended exactly on a boundary) no duplicate is added.
// Flushing a run shorter than one interval yields that run's only sample.
func (s *Sampler) Flush(finalCycle uint64) {
	if s == nil {
		return
	}
	if n := len(s.samples); n > 0 && s.samples[n-1].Cycle >= finalCycle {
		return
	}
	s.take(finalCycle)
}

func (s *Sampler) take(cycle uint64) {
	sm := Sample{
		Cycle:    cycle,
		Counters: make(map[string]uint64),
	}
	s.reg.counterSnapshot(sm.Counters)
	if s.reg.hasKind(KindGauge) {
		sm.Gauges = make(map[string]float64)
		s.reg.gaugeSnapshot(sm.Gauges)
	}
	s.samples = append(s.samples, sm)
}

// Samples returns the recorded series in time order.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	return s.samples
}

// Every returns the sampling interval in cycles (0 for a disabled sampler).
func (s *Sampler) Every() uint64 {
	if s == nil {
		return 0
	}
	return s.every
}

// Rates returns the per-cycle rate of the named counter over each interval
// of the series: out[i] covers (samples[i-1].Cycle, samples[i].Cycle], with
// the first interval anchored at cycle 0. Counters that are themselves
// cycle-valued (stall cycles) become duty-cycle fractions; event counters
// become events-per-cycle (multiply by 1000 for per-kilo-cycle). Missing
// names yield zeros.
func Rates(samples []Sample, name string) []float64 {
	out := make([]float64, len(samples))
	var prevV, prevC uint64
	for i, s := range samples {
		v := s.Counters[name]
		// Guard before subtracting: a non-monotone sample stream (stale
		// or merged input) must yield zero rate, not a wrapped uint64.
		if s.Cycle > prevC {
			out[i] = float64(v-prevV) / float64(s.Cycle-prevC)
		}
		prevV, prevC = v, s.Cycle
	}
	return out
}

// RatioDeltas returns the per-interval ratio Δnum/Δden of two counters
// (e.g. L1 misses over L1 accesses → per-interval miss rate). Intervals
// where the denominator did not advance yield 0.
func RatioDeltas(samples []Sample, num, den string) []float64 {
	out := make([]float64, len(samples))
	var prevN, prevD uint64
	for i, s := range samples {
		n, d := s.Counters[num], s.Counters[den]
		if dd := d - prevD; dd > 0 {
			out[i] = float64(n-prevN) / float64(dd)
		}
		prevN, prevD = n, d
	}
	return out
}
