// Package met is the metricscomplete analyzer's golden input.
package met

import "example.com/lint/internal/metrics"

// Stats is the stat carrier checked against AttachMetrics below.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // want `exported counter Evictions is never bound`
	//simlint:allow metricscomplete -- deliberately unregistered in the golden input
	Skipped uint64
	note    uint64 // unexported: not required to be bound
}

// Core owns a Stats carrier.
type Core struct {
	Stats Stats
}

// AttachMetrics binds only part of Stats; the analyzer reports the rest.
func (c *Core) AttachMetrics(reg *metrics.Registry) {
	s := &c.Stats
	reg.BindCounter("core.hits", &s.Hits)
	reg.CounterFunc("core.misses", func() uint64 { return s.Misses })
}

// Queue has no Stats field, so its own exported counters are the carrier
// (the MSHR style).
type Queue struct {
	depth  int
	Allocs uint64
	Drops  uint64 // want `exported counter Drops is never bound`
}

// AttachMetrics binds only Allocs.
func (q *Queue) AttachMetrics(reg *metrics.Registry) {
	reg.BindCounter("q.allocs", &q.Allocs)
	reg.GaugeFunc("q.depth", func() float64 { return float64(q.depth) })
}
