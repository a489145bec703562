package specfuzz

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/sim"
)

// TimingThreshold is the per-slot probe-latency difference (in cycles)
// that counts as observable. An L1 hit and an L2 hit are ≥ 5 cycles apart
// on the paper's configuration and a DRAM miss is ~100 cycles slower, so 4
// cycles separates every real residency difference from pipeline jitter.
const TimingThreshold = 4

// gadgetMaxCycles bounds one gadget run; a single-round gadget finishes in
// well under a million cycles, so hitting this means the program hung.
const gadgetMaxCycles = arch.Cycle(20_000_000)

// Observation is what the attacker sees after one gadget run: the probe
// latency vector (timing mode) or the hierarchy tag snapshot (state mode).
type Observation struct {
	Probe []uint64
	Snap  memsys.Snapshot
}

// runOnce executes one gadget program to completion under a freshly built
// policy instance and collects its observation.
func runOnce(s GadgetSpec, secret int, cfg sim.Config, mode BuildMode) (Observation, error) {
	pol, hcfg, err := sim.BuildPolicy(cfg)
	if err != nil {
		return Observation{}, err
	}
	g := GeometryOf(hcfg)
	prog, err := BuildProgram(s, secret, mode, g)
	if err != nil {
		return Observation{}, err
	}
	mcfg := cpu.DefaultConfig()
	mcfg.MaxCycles = gadgetMaxCycles
	h := memsys.New(hcfg)
	m := cpu.New(mcfg, prog, h, pol)
	m.Run(0)
	if !m.Halted() {
		return Observation{}, fmt.Errorf("specfuzz: gadget %s (%s, secret=%d, %s) did not halt within %d cycles",
			s.ID, cfg.Policy, secret, mode, uint64(gadgetMaxCycles))
	}
	var obs Observation
	if mode == ModeTiming {
		n := ProbeSlots(s, g)
		obs.Probe = make([]uint64, n)
		for k := 0; k < n; k++ {
			obs.Probe[k] = m.Memory().Read64(addrRes + arch.Addr(k*8))
		}
		return obs, nil
	}
	obs.Snap = m.SnapshotHierarchy()
	return obs, nil
}

// Verdict is the oracle's answer for one (gadget, policy) cell: did any
// secret-dependent difference survive the defense, and through which
// channel. It is the cell's Aux payload, so it round-trips through the
// campaign cache as JSON.
type Verdict struct {
	Gadget string `json:"gadget"`
	Policy string `json:"policy"`

	// ProbeA/ProbeB are the raw per-slot probe latencies (cycles) of the
	// two timing-mode runs.
	ProbeA []uint64 `json:"probe_a"`
	ProbeB []uint64 `json:"probe_b"`
	// TimingSlots lists the probe slots whose latency differs by at
	// least TimingThreshold cycles between the runs.
	TimingSlots []int `json:"timing_slots,omitempty"`
	// MaxTimingDelta is the largest per-slot latency difference, in
	// cycles.
	MaxTimingDelta uint64 `json:"max_timing_delta"`

	// StateDiffs renders every tag-state difference between the two
	// state-mode hierarchy snapshots.
	StateDiffs []string `json:"state_diffs,omitempty"`

	// Leak reports that at least one channel observed a secret-dependent
	// difference; Channels names them ("timing", "state").
	Leak     bool     `json:"leak"`
	Channels []string `json:"channels,omitempty"`
}

// RunPair executes the full differential pair for one gadget under one
// policy: two timing-mode runs (secret=A, secret=B) compared slot-by-slot,
// and two state-mode runs compared snapshot-to-snapshot. cfg carries the
// policy under test and the hierarchy seed; both runs of a pair use the
// same seed, so replacement and CEASER randomness are identical and any
// surviving difference is attributable to the secret alone.
func RunPair(s GadgetSpec, cfg sim.Config) (Verdict, error) {
	v := Verdict{Gadget: s.ID, Policy: string(cfg.Policy)}

	ta, err := runOnce(s, s.SecretA, cfg, ModeTiming)
	if err != nil {
		return v, err
	}
	tb, err := runOnce(s, s.SecretB, cfg, ModeTiming)
	if err != nil {
		return v, err
	}
	sa, err := runOnce(s, s.SecretA, cfg, ModeState)
	if err != nil {
		return v, err
	}
	sb, err := runOnce(s, s.SecretB, cfg, ModeState)
	if err != nil {
		return v, err
	}

	v.ProbeA, v.ProbeB = ta.Probe, tb.Probe
	for k := range ta.Probe {
		var d uint64
		if ta.Probe[k] > tb.Probe[k] {
			d = ta.Probe[k] - tb.Probe[k]
		} else {
			d = tb.Probe[k] - ta.Probe[k]
		}
		if d > v.MaxTimingDelta {
			v.MaxTimingDelta = d
		}
		if d >= TimingThreshold {
			v.TimingSlots = append(v.TimingSlots, k)
		}
	}
	for _, d := range sa.Snap.Diff(sb.Snap) {
		v.StateDiffs = append(v.StateDiffs, d.String())
	}

	if len(v.TimingSlots) > 0 {
		v.Leak = true
		v.Channels = append(v.Channels, "timing")
	}
	if len(v.StateDiffs) > 0 {
		v.Leak = true
		v.Channels = append(v.Channels, "state")
	}
	return v, nil
}
