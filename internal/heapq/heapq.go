// Package heapq is the simulator's one priority queue: a binary min-heap
// that the cycle loop uses for every time- or age-ordered worklist — the
// core's ready, completion and deferred-wakeup queues and the memory
// system's pending transactions.
//
// Items are ordered by (At, Seq) and by nothing else. Callers give every
// item a Seq that is unique among those queued together (an instruction's
// sequence number, a global insertion counter), so the pop order is fully
// determined: it does not depend on the heap's internal layout, and equal
// At values pop in ascending Seq. The key lives in the item rather than
// behind a comparator or a method on V, so the compare inlines in every
// instantiation and no queued value is boxed into an interface.
package heapq

import "repro/internal/arch"

// Item is one queued value with its ordering key.
type Item[V any] struct {
	At  arch.Cycle
	Seq uint64
	Val V
}

// Heap is a min-heap of Items ordered by (At, Seq). The zero value is an
// empty heap ready to use. It is not safe for concurrent use.
type Heap[V any] struct {
	items []Item[V]
}

// before is the heap order: earlier At first, then lower Seq.
func before(aAt arch.Cycle, aSeq uint64, bAt arch.Cycle, bSeq uint64) bool {
	return aAt < bAt || aAt == bAt && aSeq < bSeq
}

// Len reports the number of queued items.
func (h *Heap[V]) Len() int { return len(h.items) }

// Due reports whether the minimum item is due at or before now.
func (h *Heap[V]) Due(now arch.Cycle) bool {
	return len(h.items) > 0 && h.items[0].At <= now
}

// Push queues v under the key (at, seq).
func (h *Heap[V]) Push(at arch.Cycle, seq uint64, v V) {
	//simlint:allow hotalloc -- heap storage: capacity grows to the queue's high-water mark (bounded by the ROB, LQ and MSHR sizes) and is reused across cycles
	q := append(h.items, Item[V]{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(at, seq, q[p].At, q[p].Seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = Item[V]{At: at, Seq: seq, Val: v}
	h.items = q
}

// Pop removes and returns the minimum item. The heap must not be empty.
// The slot it vacates is zeroed, so the heap keeps no reference to a
// popped value.
func (h *Heap[V]) Pop() Item[V] {
	q := h.items
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = Item[V]{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(q[r].At, q[r].Seq, q[c].At, q[c].Seq) {
				c = r
			}
			if !before(q[c].At, q[c].Seq, last.At, last.Seq) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	h.items = q
	return top
}
