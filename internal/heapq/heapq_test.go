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

// TestPopOrderMatchesSort interleaves random pushes and pops, with few
// distinct At values so ties are common, and checks every peek and pop
// against a model that keeps the queued items sorted by (At, Seq). Seq is
// drawn at random, not in push order, so a tie on At is not broken by push
// order.
func TestPopOrderMatchesSort(t *testing.T) {
	less := func(a, b Item[uint64]) bool {
		return a.At < b.At || a.At == b.At && a.Seq < b.Seq
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		var h Heap[uint64]
		var model []Item[uint64]
		seqs := r.Perm(2000)
		for step := 0; step < 2000; step++ {
			if len(model) == 0 || r.Intn(3) != 0 {
				it := Item[uint64]{At: arch.Cycle(r.Intn(8)), Seq: uint64(seqs[step]), Val: r.Uint64()}
				h.Push(it.At, it.Seq, it.Val)
				i := sort.Search(len(model), func(i int) bool { return less(it, model[i]) })
				model = append(model, Item[uint64]{})
				copy(model[i+1:], model[i:])
				model[i] = it
				continue
			}
			if !h.Due(model[0].At) || (model[0].At > 0 && h.Due(model[0].At-1)) {
				t.Fatalf("seed %d step %d: Due disagrees with minimum At %d", seed, step, model[0].At)
			}
			if top, ok := h.Peek(); !ok || top != model[0] {
				t.Fatalf("seed %d step %d: Peek = %+v, %v, want %+v", seed, step, top, ok, model[0])
			}
			got := h.Pop()
			if got != model[0] {
				t.Fatalf("seed %d step %d: Pop = %+v, want %+v", seed, step, got, model[0])
			}
			model = model[1:]
			if h.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, h.Len(), len(model))
			}
		}
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
