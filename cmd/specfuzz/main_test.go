package main

import (
	"strings"
	"testing"
)

// TestCheckCountRejectsZero: a gadget count below 1 is refused naming
// -count, instead of fuzzing some other number of gadgets.
func TestCheckCountRejectsZero(t *testing.T) {
	for _, c := range []struct {
		count int
		ok    bool
	}{{64, true}, {1, true}, {0, false}, {-3, false}} {
		err := checkCount(c.count)
		if c.ok && err != nil || !c.ok && (err == nil || !strings.HasPrefix(err.Error(), "-count ")) {
			t.Errorf("checkCount(%d) = %v, want ok=%v", c.count, err, c.ok)
		}
	}
}
