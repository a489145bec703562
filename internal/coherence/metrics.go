package coherence

import "repro/internal/metrics"

// AttachMetrics binds the directory's transaction counters into reg under
// the "coh." prefix. Fields stay plain struct counters on the hot path.
func (d *Directory) AttachMetrics(reg *metrics.Registry) {
	s := &d.Stats
	reg.BindCounter("coh.gets", &s.GetS)
	reg.BindCounter("coh.getx", &s.GetX)
	reg.BindCounter("coh.downgrades", &s.Downgrades)
	reg.BindCounter("coh.invalidates", &s.Invalidates)
	reg.BindCounter("coh.writebacks", &s.Writebacks)
	reg.BindCounter("coh.flushes", &s.Flushes)
}
