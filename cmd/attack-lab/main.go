// Command attack-lab demonstrates the cache side channels the paper closes:
//
//	attack-lab -demo primeprobe   # L1 Prime+Probe vs CleanupSpec's restore
//	attack-lab -demo l2random     # L2 set-prediction vs CEASER randomization
//	attack-lab -demo replstate    # replacement-state channel vs random repl
//	attack-lab -demo spectre      # Spectre V1 probe latencies (Figure 11)
//
// With -json the lab emits one machine-readable verdict per (demo, policy)
// pair instead of prose, so harnesses can assert on leak outcomes:
//
//	attack-lab -json | jq '.[] | select(.leak)'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/sim"
)

// Verdict is one machine-readable outcome: did the named configuration
// leak through this demo's channel?
type Verdict struct {
	Demo   string `json:"demo"`
	Policy string `json:"policy"`
	Leak   bool   `json:"leak"`
	Detail string `json:"detail"`
}

func main() {
	demo := flag.String("demo", "all", "primeprobe, l2random, replstate, spectre, or all")
	asJSON := flag.Bool("json", false, "emit machine-readable per-policy verdicts")
	flag.Parse()

	text := !*asJSON
	var verdicts []Verdict
	switch *demo {
	case "primeprobe":
		verdicts = primeProbe(text)
	case "l2random":
		verdicts = l2Random(text)
	case "replstate":
		verdicts = replState(text)
	case "spectre":
		verdicts = spectre(text)
	case "all":
		verdicts = append(verdicts, primeProbe(text)...)
		verdicts = append(verdicts, l2Random(text)...)
		verdicts = append(verdicts, replState(text)...)
		verdicts = append(verdicts, spectre(text)...)
	default:
		fmt.Fprintln(os.Stderr, "attack-lab: unknown demo", *demo)
		os.Exit(2)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(verdicts); err != nil {
			fmt.Fprintln(os.Stderr, "attack-lab:", err)
			os.Exit(1)
		}
	}
}

func primeProbe(text bool) []Verdict {
	if text {
		fmt.Println("=== L1 Prime+Probe (Section 2.4.1) ===")
		fmt.Println("The attacker primes the L1 set of array2[secret*512], triggers the")
		fmt.Println("transient access, and re-times its own lines; a disturbed set reveals")
		fmt.Println("the transient install's eviction even after invalidation.")
	}
	ns := attack.RunPrimeProbeL1(cpu.NonSecure{}, memsys.DefaultConfig(1), 22)
	hcfg := core.HierarchyConfig(memsys.DefaultConfig(1))
	hcfg.L1.Repl = cache.ReplLRU
	cs := attack.RunPrimeProbeL1(core.New(), hcfg, 22)
	if text {
		show := func(name string, r attack.PrimeProbeResult) {
			fmt.Printf("  %-12s way latencies %v -> eviction observed: %v\n",
				name, r.WayLatency, r.EvictionObserved)
		}
		show("nonsecure", ns)
		show("cleanupspec", cs)
		fmt.Println()
	}
	detail := func(r attack.PrimeProbeResult) string {
		return fmt.Sprintf("way latencies %v", r.WayLatency)
	}
	return []Verdict{
		{Demo: "primeprobe", Policy: "nonsecure", Leak: ns.EvictionObserved, Detail: detail(ns)},
		{Demo: "primeprobe", Policy: "cleanupspec", Leak: cs.EvictionObserved, Detail: detail(cs)},
	}
}

func l2Random(text bool) []Verdict {
	if text {
		fmt.Println("=== L2 Prime+Probe vs CEASER randomization (Section 3.2) ===")
	}
	count := func(randomized bool) int {
		n := 0
		for seed := uint64(0); seed < 20; seed++ {
			if attack.L2PrimeProbeObservation(randomized, seed) {
				n++
			}
		}
		return n
	}
	mod, ceaser := count(false), count(true)
	if text {
		fmt.Printf("  modulo-indexed L2:  attacker's set prediction works in %d/20 runs\n", mod)
		fmt.Printf("  CEASER-indexed L2:  attacker's set prediction works in %d/20 runs\n", ceaser)
		fmt.Println()
	}
	// The set prediction is a usable channel when it works reliably; under
	// CEASER it degrades to a (sets·ways)⁻¹ guess that occasionally lands.
	return []Verdict{
		{Demo: "l2random", Policy: "modulo-indexed", Leak: mod > 10,
			Detail: fmt.Sprintf("set prediction works in %d/20 runs", mod)},
		{Demo: "l2random", Policy: "ceaser-indexed", Leak: ceaser > 10,
			Detail: fmt.Sprintf("set prediction works in %d/20 runs", ceaser)},
	}
}

func replState(text bool) []Verdict {
	if text {
		fmt.Println("=== Replacement-state channel (Sections 2.1 / 3.2) ===")
		fmt.Println("A transient HIT changes no tags, but under LRU it decides which line a")
		fmt.Println("later install evicts. Random replacement removes the state entirely.")
	}
	lruHit := attack.ReplacementStateChannel(cache.ReplLRU, true, 1)
	lruNoHit := attack.ReplacementStateChannel(cache.ReplLRU, false, 1)
	same := true
	for seed := uint64(0); seed < 16; seed++ {
		if attack.ReplacementStateChannel(cache.ReplRandom, true, seed) !=
			attack.ReplacementStateChannel(cache.ReplRandom, false, seed) {
			same = false
		}
	}
	if text {
		fmt.Printf("  LRU:    A survives with transient hit: %v; without: %v  (distinguishable -> leak)\n",
			lruHit, lruNoHit)
		fmt.Printf("  Random: outcome independent of the transient hit across seeds: %v\n", same)
		fmt.Println()
	}
	return []Verdict{
		{Demo: "replstate", Policy: "lru", Leak: lruHit != lruNoHit,
			Detail: fmt.Sprintf("A survives with transient hit: %v, without: %v", lruHit, lruNoHit)},
		{Demo: "replstate", Policy: "random", Leak: !same,
			Detail: fmt.Sprintf("outcome independent of transient hit across 16 seeds: %v", same)},
	}
}

// spectre runs the Spectre V1 proof of concept (30 rounds) under the
// non-secure baseline and CleanupSpec and prints each probe-latency
// profile (Figure 11): without protection the secret index shows a clear
// latency dip; under CleanupSpec the dip disappears while the
// correct-path (benign) indices stay fast.
func spectre(text bool) []Verdict {
	var verdicts []Verdict
	for _, p := range []sim.Policy{sim.NonSecure, sim.CleanupSpec} {
		r, err := sim.RunSpectre(p, 30)
		if err != nil {
			fmt.Fprintln(os.Stderr, "attack-lab:", err)
			os.Exit(1)
		}
		if text {
			showSpectre(r)
		}
		verdicts = append(verdicts, Verdict{Demo: "spectre", Policy: r.Policy, Leak: r.Leaked,
			Detail: fmt.Sprintf("planted secret %d, inferred %d", r.Secret, r.Inferred)})
	}
	return verdicts
}

func showSpectre(r sim.SpectreResult) {
	fmt.Printf("=== %s ===\n", r.Policy)
	max := 0.0
	for _, v := range r.AvgLatency {
		if v > max {
			max = v
		}
	}
	benign := map[int]bool{}
	for _, b := range r.BenignIndices {
		benign[b] = true
	}
	for k, v := range r.AvgLatency {
		tag := ""
		if k == r.Secret {
			tag = "  <-- SECRET"
		} else if benign[k] {
			tag = "  (benign)"
		}
		fmt.Printf("array2[%2d*512] %6.0f cy %s%s\n", k, v, strings.Repeat("#", int(v/max*50)), tag)
	}
	if r.Leaked {
		fmt.Printf("verdict: LEAKED — inferred secret %d (planted %d)\n\n", r.Inferred, r.Secret)
	} else {
		fmt.Printf("verdict: no leak — the secret index does not stand out\n\n")
	}
}
