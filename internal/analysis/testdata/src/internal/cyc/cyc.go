// Package cyc is the golden input for cyclemath's representation rule (rule 3).
package cyc

// Cycle is a correctly-typed named cycle type (the arch.Cycle pattern).
type Cycle uint64

// Timing mixes correct and truncation-prone latency fields.
type Timing struct {
	HitLat      uint64  // ok: uint64
	MissLat     Cycle   // ok: named type with uint64 underlying
	FetchLat    int     // want `field FetchLat holds a cycle count or latency but is int`
	DrainCycles int32   // want `field DrainCycles holds a cycle count or latency but is int32`
	AvgLatency  float64 // ok: fractional-cycle aggregate, not an integer truncation hazard
}

// Wait computes a stall; the int32 parameter is the truncation hazard.
func Wait(hitLat uint64, missLat int32) uint64 { // want `parameter missLat holds a cycle count or latency but is int32`
	return hitLat + uint64(missLat)
}

// TotalCycles returns an int result where a uint64 is required.
func TotalCycles(n int) (totalCycles int) { // want `result totalCycles holds a cycle count or latency but is int`
	return n
}
