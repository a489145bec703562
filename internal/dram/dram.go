// Package dram models main memory. The paper configures a 50 ns round trip
// after the L2 (Table 4) and — importantly for security — a close-page
// row-buffer policy at the memory controller so that row-buffer hit/miss
// timing cannot be used as a covert channel (DRAMA, Section 2.1).
//
// The model is close-page only: every access precharges its row, so every
// access costs the same round trip and no row-buffer state is kept.
package dram

import (
	"repro/internal/arch"
)

// Config describes the memory model.
type Config struct {
	// RTCycles is the round-trip latency after an L2 miss, in core
	// cycles (paper: 50 ns at 2 GHz = 100 cycles).
	RTCycles arch.Cycle
}

// DefaultConfig returns the paper's memory configuration.
func DefaultConfig() Config {
	return Config{RTCycles: 100} // 50ns at 2GHz
}

// Stats counts memory events.
type Stats struct {
	Reads      uint64
	Writes     uint64
	TotalDelay arch.Cycle
}

// DRAM is the main-memory model.
type DRAM struct {
	cfg Config

	Stats Stats
}

// New builds a DRAM model.
func New(cfg Config) *DRAM { return &DRAM{cfg: cfg} }

// AccessLatency returns the latency of a read or write of line l: the
// constant close-page round trip.
func (d *DRAM) AccessLatency(l arch.LineAddr, write bool) arch.Cycle {
	if write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	d.Stats.TotalDelay += d.cfg.RTCycles
	return d.cfg.RTCycles
}

// ResetStats zeroes counters.
func (d *DRAM) ResetStats() { d.Stats = Stats{} }
