package main

import "testing"

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
