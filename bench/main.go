// Command bench is the repository's benchmark: three fixed workloads driven
// through the simulator's public entry points (sim.RunWorkload,
// campaign.Engine with its on-disk Cache, and experiments.Runner), in a
// closed loop with one client and one worker.
//
// Usage, from this directory:
//
//	go run . [--workload name] [--seed n] [--seconds n] [--trace 0|1]
//
// With --workload it runs that workload in this process; without, it runs
// every workload, each in its own child process so that peak_rss_mb is the
// workload's own. A run sets the workload up several times, then repeats
// full passes over its operations for --seconds, and checks every result.
// Its last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"wall_s": {"value": 6.1, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// passes with passes under the CPU profiler and reports the per-layer
// metrics instead. A table of the same metrics, with sample counts and the
// run's sim_digest, goes to standard error. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "hierarchy-randomisation seed of every simulated cell")
	seconds := fs.Int("seconds", 40, "time one run spends in passes")
	trace := fs.Int("trace", 0, "1: profile alternate passes and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [--workload name] [--seed n] [--seconds n>=1] [--trace 0|1]")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	opt := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, sz: fullSizes}
	rep, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	ms := rep.endToEnd()
	if opt.trace {
		ms = rep.perLayer()
	}
	fmt.Fprint(stderr, summary(rep, ms))
	line, err := resultLine(rep, ms)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func resultLine(rep *report, ms map[string]metric) ([]byte, error) {
	t := rep.total()
	return json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms})
}

// runAll runs every workload in a child process of this binary, one after
// another, and passes each child's result line through.
func runAll(seed uint64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
