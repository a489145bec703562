package main

// `campaign replay` re-runs a quarantined cell from its dump under a
// full-depth trace: the dump names the job and the panic, and the re-run
// supplies the events that led up to it.

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/specfuzz"
)

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("campaign replay", flag.ExitOnError)
	var (
		depth    = fs.Int("depth", campaign.ReplayDepth, "replay trace capacity in events")
		traceOut = fs.String("trace-out", "", "write the replay's full event trace to this file (- = stdout)")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: campaign replay [flags] <quarantine-dump.json>")
	}
	dump, err := campaign.LoadDump(fs.Arg(0))
	if err != nil {
		return err
	}
	eng := campaign.NewEngine()
	specfuzz.Register(eng)
	fmt.Fprintf(os.Stderr, "campaign: replaying %s (originally quarantined: %s)\n", dump.Job, dump.Panic)
	rep, err := campaign.Replay(eng, dump, *depth)
	if err != nil {
		return err
	}
	if rep.Reproduced {
		fmt.Printf("replay: REPRODUCED — %v\n", rep.Result.Err)
	} else if rep.Result.Err != nil {
		fmt.Printf("replay: failed differently — %v\n", rep.Result.Err)
	} else {
		fmt.Println("replay: clean — the quarantined panic did not reproduce (fixed engine, or nondeterministic fault)")
	}
	fmt.Printf("replay: %d event(s) captured at full depth", len(rep.Events))
	if rep.Dropped > 0 {
		fmt.Printf(" (%d dropped: cell out-ran the %d-event capacity; raise -depth)", rep.Dropped, *depth)
	}
	fmt.Println()
	if *traceOut != "" {
		w := os.Stdout
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		for _, e := range rep.Events {
			if _, err := fmt.Fprintln(w, e.String()); err != nil {
				return err
			}
		}
		if *traceOut != "-" {
			fmt.Fprintf(os.Stderr, "campaign: wrote %d event(s) to %s\n", len(rep.Events), *traceOut)
		}
	}
	if rep.Reproduced {
		return fmt.Errorf("quarantined panic reproduced")
	}
	return nil
}
