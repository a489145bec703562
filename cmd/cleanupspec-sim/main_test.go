package main

import "testing"

func TestCheckSamplingRejectsEmptySeries(t *testing.T) {
	cases := []struct {
		name       string
		every      uint64
		metricsOut string
		width      int
		wantErr    bool
	}{
		{"defaults", 1000, "", 0, false},
		{"metrics-out sampled", 1000, "m.jsonl", 40, false},
		{"zero interval, no sampled output", 0, "", 0, false},
		{"zero interval, metrics-out", 0, "m.jsonl", 0, true},
		{"zero interval, phase plot", 0, "", 40, true},
	}
	for _, c := range cases {
		err := checkSampling(c.every, c.metricsOut, c.width)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: checkSampling(%d, %q, %d) = %v, want error %v",
				c.name, c.every, c.metricsOut, c.width, err, c.wantErr)
		}
	}
}
