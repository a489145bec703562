// Package hotpath is the hotalloc analyzer's golden input: allocation
// sites reachable from a declared per-cycle root are findings; the same
// sites in cold code are not.
package hotpath

// Sink consumes a value through an interface parameter, forcing the
// caller to box concrete arguments.
func Sink(v any) { _ = v }

// stats is a tiny per-step accumulator.
type stats struct{ vals []uint64 }

// Step is the per-cycle root. The committed hotroots.go list names only
// real-module functions, so the golden module declares its root with the
// directive form.
//
//simlint:hot -- golden stand-in for the simulator's per-cycle driver
func Step(s *stats, n uint64) {
	s.vals = append(s.vals, n)      // want `allocation on the per-cycle hot path \(append\)`
	Sink(n)                         // want `allocation on the per-cycle hot path \(box\)`
	f := func() uint64 { return n } // want `allocation on the per-cycle hot path \(closure\)`
	_ = f()
	helper(s)
	remove(s, 0)
	var q queue[uint64]
	q.push(n)
	_ = grow[uint64](len(s.vals))
	//simlint:allow hotalloc -- golden suppressed site: scratch map is bounded by the step's fan-out
	scratch := make(map[uint64]bool)
	_ = scratch
}

// helper is reachable from Step through a call edge, so its sites are
// hot too — the analysis is interprocedural, not lexical.
func helper(s *stats) {
	s.vals = append(s.vals, 1) // want `allocation on the per-cycle hot path \(append\)`
}

// queue is a generic worklist. A call to its method resolves to the
// instantiated method, which the analysis maps back to the declared one.
type queue[T any] struct{ items []T }

func (q *queue[T]) push(v T) {
	q.items = append(q.items, v) // want `allocation on the per-cycle hot path \(append\)`
}

// grow is called with explicit type arguments: the callee sits behind an
// index expression in call position.
func grow[T any](n int) []T {
	return make([]T, n) // want `allocation on the per-cycle hot path \(make\)`
}

// remove uses the in-place splice idiom: append(s[:i], s[i+1:]...) can
// never outgrow the backing array, so the analyzer proves it silent.
func remove(s *stats, i int) {
	s.vals = append(s.vals[:i], s.vals[i+1:]...)
}

// Cold is not reachable from any root: identical allocations, no
// findings.
func Cold() []uint64 {
	out := make([]uint64, 0, 8)
	return append(out, 1)
}
