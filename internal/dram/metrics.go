package dram

import "repro/internal/metrics"

// AttachMetrics binds the memory model's counters into reg under the
// "dram." prefix.
func (d *DRAM) AttachMetrics(reg *metrics.Registry) {
	s := &d.Stats
	reg.BindCounter("dram.reads", &s.Reads)
	reg.BindCounter("dram.writes", &s.Writes)
	reg.CounterFunc("dram.total_delay_cycles", func() uint64 { return uint64(s.TotalDelay) })
}
