// Package heapq is the simulator's one priority queue, which the cycle
// loop uses for every time- or age-ordered worklist — the core's ready,
// completion and deferred-wakeup queues and the memory system's pending
// transactions.
//
// Items are ordered by (At, Seq) and by nothing else. Callers give every
// item a Seq that is unique among those queued together (an instruction's
// sequence number, a global insertion counter), so the pop order is fully
// determined: equal At values pop in ascending Seq. The key lives in the
// item rather than behind a comparator or a method on V, so the compare
// inlines in every instantiation and no queued value is boxed into an
// interface.
//
// The queue is one slice kept sorted largest first, so Pop takes the last
// item in O(1) and Push shifts the items that pop before the new one,
// O(n) in the worst case. These queues are short: on bench's three
// workloads a push finds 1.7–2.1 items queued on average (99th percentile
// 6–9, at most 35) and moves about one of them. At those depths that costs
// less than a binary heap's O(log n) sift up on every Push and sift down
// on every Pop, whose compares branch unpredictably.
package heapq

import "repro/internal/arch"

// Item is one queued value with its ordering key.
type Item[V any] struct {
	At  arch.Cycle
	Seq uint64
	Val V
}

// Heap is a priority queue of Items ordered by (At, Seq), minimum first.
// The zero value is an empty queue ready to use. It is not safe for
// concurrent use.
type Heap[V any] struct {
	items []Item[V] // sorted by (At, Seq), largest first
}

// Len reports the number of queued items.
func (h *Heap[V]) Len() int { return len(h.items) }

// Due reports whether the minimum item is due at or before now.
func (h *Heap[V]) Due(now arch.Cycle) bool {
	n := len(h.items)
	return n > 0 && h.items[n-1].At <= now
}

// Peek returns the minimum item without removing it, and false when the
// queue is empty.
func (h *Heap[V]) Peek() (Item[V], bool) {
	n := len(h.items)
	if n == 0 {
		return Item[V]{}, false
	}
	return h.items[n-1], true
}

// Push queues v under the key (at, seq).
func (h *Heap[V]) Push(at arch.Cycle, seq uint64, v V) {
	q := append(h.items, Item[V]{})
	i := len(q) - 1
	for ; i > 0 && (q[i-1].At < at || q[i-1].At == at && q[i-1].Seq < seq); i-- {
		q[i] = q[i-1]
	}
	q[i] = Item[V]{At: at, Seq: seq, Val: v}
	h.items = q
}

// Pop removes and returns the minimum item. The queue must not be empty.
// The slot it vacates is zeroed, so the queue keeps no reference to a
// popped value.
func (h *Heap[V]) Pop() Item[V] {
	n := len(h.items) - 1
	top := h.items[n]
	h.items[n] = Item[V]{}
	h.items = h.items[:n]
	return top
}
