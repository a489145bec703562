package heapq

import (
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/xrand"
)

// TestZeroValue checks that a zero Heap is empty, never due, has nothing
// to peek at, and is usable.
func TestZeroValue(t *testing.T) {
	var h Heap[int]
	if _, ok := h.Peek(); h.Len() != 0 || h.Due(^arch.Cycle(0)) || ok {
		t.Fatalf("zero heap: Len %d, Due %v, Peek ok %v; want empty", h.Len(), h.Due(^arch.Cycle(0)), ok)
	}
	h.Push(5, 1, 42)
	if !h.Due(5) || h.Due(4) {
		t.Errorf("Due(5)=%v Due(4)=%v; want true, false", h.Due(5), h.Due(4))
	}
	if it, ok := h.Peek(); !ok || it != (Item[int]{At: 5, Seq: 1, Val: 42}) || h.Len() != 1 {
		t.Errorf("Peek = %+v, %v, Len %d; want {5 1 42}, true, 1", it, ok, h.Len())
	}
	if it := h.Pop(); it != (Item[int]{At: 5, Seq: 1, Val: 42}) || h.Len() != 0 {
		t.Errorf("Pop = %+v, Len %d; want {5 1 42}, 0", it, h.Len())
	}
}

// TestPopOrderMatchesSort interleaves random pushes and pops and checks
// every peek and pop against a model that keeps the queued items sorted by
// (At, Seq). Each pattern draws At the way one caller does, relative to a
// cycle that advances as the test runs; "random" uses few distinct At
// values, so ties are common. Seq is drawn at random, not in push order, so
// a tie on At is not broken by push order.
func TestPopOrderMatchesSort(t *testing.T) {
	less := func(a, b Item[uint64]) bool {
		return a.At < b.At || a.At == b.At && a.Seq < b.Seq
	}
	patterns := []struct {
		name string
		at   func(r *xrand.Rand, now arch.Cycle) arch.Cycle
	}{
		{"random", func(r *xrand.Rand, _ arch.Cycle) arch.Cycle { return arch.Cycle(r.Intn(8)) }},
		// The core's ready queue orders by age alone.
		{"ready", func(*xrand.Rand, arch.Cycle) arch.Cycle { return 0 }},
		// Completions land 0–3 cycles ahead.
		{"done", func(r *xrand.Rand, now arch.Cycle) arch.Cycle { return now + arch.Cycle(r.Intn(4)) }},
		// Deferred wakeups and memory transactions land hundreds of
		// cycles ahead.
		{"wake", func(r *xrand.Rand, now arch.Cycle) arch.Cycle { return now + arch.Cycle(100+r.Intn(400)) }},
		// DrainMemory jumps time ahead, so the completions it schedules
		// are already past due when the core next pops them.
		{"drained", func(r *xrand.Rand, now arch.Cycle) arch.Cycle { return now - arch.Cycle(r.Intn(300)) }},
	}
	for _, p := range patterns {
		for seed := uint64(1); seed <= 20; seed++ {
			r := xrand.New(seed)
			var h Heap[uint64]
			var model []Item[uint64]
			seqs := r.Perm(2000)
			for step := 0; step < 2000; step++ {
				now := arch.Cycle(1000 + step/4)
				if len(model) == 0 || r.Intn(3) != 0 {
					it := Item[uint64]{At: p.at(r, now), Seq: uint64(seqs[step]), Val: r.Uint64()}
					h.Push(it.At, it.Seq, it.Val)
					i := sort.Search(len(model), func(i int) bool { return less(it, model[i]) })
					model = append(model, Item[uint64]{})
					copy(model[i+1:], model[i:])
					model[i] = it
					continue
				}
				if !h.Due(model[0].At) || (model[0].At > 0 && h.Due(model[0].At-1)) {
					t.Fatalf("%s seed %d step %d: Due disagrees with minimum At %d", p.name, seed, step, model[0].At)
				}
				if top, ok := h.Peek(); !ok || top != model[0] {
					t.Fatalf("%s seed %d step %d: Peek = %+v, %v, want %+v", p.name, seed, step, top, ok, model[0])
				}
				got := h.Pop()
				if got != model[0] {
					t.Fatalf("%s seed %d step %d: Pop = %+v, want %+v", p.name, seed, step, got, model[0])
				}
				model = model[1:]
				if h.Len() != len(model) {
					t.Fatalf("%s seed %d step %d: Len = %d, want %d", p.name, seed, step, h.Len(), len(model))
				}
			}
		}
	}
}

// TestNoAllocationsAtHighWater checks that once a queue has held its
// high-water mark of items, pushing and popping up to that mark again
// allocates nothing.
func TestNoAllocationsAtHighWater(t *testing.T) {
	const depth = 64
	var h Heap[*int]
	v := new(int)
	fill := func() {
		for i := 0; i < depth; i++ {
			h.Push(arch.Cycle(i*7%depth), uint64(i), v)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("%v allocations per fill and drain at the high-water mark, want 0", allocs)
	}
}

// TestPopReleasesValue checks that Pop zeroes the slot it vacates, so a
// popped pointer is no longer reachable through the heap's backing array.
func TestPopReleasesValue(t *testing.T) {
	var h Heap[*int]
	a, b := new(int), new(int)
	h.Push(1, 1, a)
	h.Push(2, 2, b)
	if got := h.Pop().Val; got != a {
		t.Fatalf("first Pop = %p, want %p", got, a)
	}
	if tail := h.items[:2][1]; tail != (Item[*int]{}) {
		t.Errorf("vacated slot holds %+v, want the zero Item", tail)
	}
	if got := h.Pop().Val; got != b {
		t.Fatalf("second Pop = %p, want %p", got, b)
	}
	if head := h.items[:1][0]; head != (Item[*int]{}) {
		t.Errorf("vacated slot holds %+v, want the zero Item", head)
	}
}
