// Package staledir is the staledirective analyzer's golden input.
package staledir

import "sort"

// Fine already follows the collect-then-sort idiom; the directive above
// its loop suppresses nothing and must be reported.
func Fine(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	//simlint:ordered -- obsolete: the loop below is already the sorted idiom // want `stale //simlint:ordered directive`
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

//simlint:allow enumexhaustive -- obsolete: nothing here switches over an enum anymore // want `stale //simlint:allow directive`
func quiet() int {
	return 1
}

// unjustified carries a directive without a justification, which is
// itself reported (and therefore never suppresses).
//
//simlint:allow cyclemath // want `//simlint:allow without a justification`
func unjustified() int {
	return 3
}

//simlint:allow timedet -- obsolete: the analyzer it names was retired // want `suppresses only analyzers that no longer exist \(timedet\)`
func retired() int {
	return 2
}

// used keeps quiet, unjustified and retired referenced.
var _ = quiet

var _ = unjustified

var _ = retired
