package main

import (
	"strings"
	"testing"
)

func TestCheckSamplingRejectsEmptySeries(t *testing.T) {
	cases := []struct {
		name       string
		every      uint64
		metricsOut string
		wantErr    bool
	}{
		{"defaults", 1000, "", false},
		{"metrics-out sampled", 1000, "pm.jsonl", false},
		{"zero interval, no series", 0, "", false},
		{"zero interval, metrics-out", 0, "pm.jsonl", true},
	}
	for _, c := range cases {
		err := checkSampling(c.every, c.metricsOut)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: checkSampling(%d, %q) = %v, want error %v",
				c.name, c.every, c.metricsOut, err, c.wantErr)
		}
	}
}

// TestCheckCountsRejectsZero: a count below 1 is refused naming its flag,
// instead of running a library fallback (100 Spectre rounds, sim's 300k
// window) or printing a Figure 9 of empty shares.
func TestCheckCountsRejectsZero(t *testing.T) {
	cases := []struct {
		instructions uint64
		iterations   int
		mtsteps      int
		flag         string // named in the error; "" = accepted
	}{
		{150_000, 30, 30_000, ""},
		{1, 1, 1, ""},
		{0, 30, 30_000, "-instructions"},
		{150_000, 0, 30_000, "-iterations"},
		{150_000, -5, 30_000, "-iterations"},
		{150_000, 30, 0, "-mtsteps"},
	}
	for _, c := range cases {
		err := checkCounts(c.instructions, c.iterations, c.mtsteps)
		if c.flag == "" && err != nil || c.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), c.flag+" ")) {
			t.Errorf("checkCounts(%d, %d, %d) = %v, want an error naming %q", c.instructions, c.iterations, c.mtsteps, err, c.flag)
		}
	}
}
