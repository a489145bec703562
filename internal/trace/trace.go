// Package trace provides a low-overhead execution trace for the simulator:
// a fixed-capacity ring of structured events the machine emits at squashes,
// memory requests, cleanups, and commits. It exists for debuggability — the
// first question about any speculative-execution simulator is "what exactly
// happened around that squash?" — and is off (nil tracer) by default.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KindFetchRedirect Kind = iota
	KindLoadIssue
	KindLoadComplete
	KindLoadDropped
	KindSquash
	KindMemOrderSquash
	// KindCleanupInval is one invalidation by CleanupSpec's cleanup of a
	// squashed load's L1 or L2 install; Line is the line invalidated.
	KindCleanupInval
	// KindCleanupRestore is one L1 eviction victim restored by the
	// cleanup; Line is the victim, Arg the restore's latency in cycles.
	KindCleanupRestore
	KindCommit
	KindHalt
	// KindSpecWindow marks the close of a speculative-install exposure
	// window (commit or cleanup of a load that filled a cache line);
	// Arg is the window length in cycles, Cycle its end.
	KindSpecWindow
)

func (k Kind) String() string {
	names := [...]string{
		"fetch-redirect", "load-issue", "load-complete", "load-dropped",
		"squash", "mem-order-squash", "cleanup-inval", "cleanup-restore",
		"commit", "halt", "spec-window",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one trace record. Fields beyond Cycle and Kind are
// kind-dependent; unused ones are zero.
type Event struct {
	Cycle arch.Cycle
	Kind  Kind
	Seq   uint64        // instruction sequence number
	PC    arch.Addr     // program counter
	Line  arch.LineAddr // cache line, for memory events
	Arg   uint64        // kind-specific (squashed count, latency, ...)
}

// String renders one event.
func (e Event) String() string {
	return fmt.Sprintf("%8d %-16s seq=%-6d pc=%-6v line=%-10v arg=%d",
		e.Cycle, e.Kind, e.Seq, e.PC, e.Line, e.Arg)
}

// Ring is a fixed-capacity event ring buffer. The zero value is unusable;
// call NewRing. Not safe for concurrent use (the simulator is
// single-threaded).
type Ring struct {
	buf   []Event
	next  int
	total uint64
}

// NewRing creates a ring holding the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		// A bad capacity is a programmer error, caught at construction.
		panic("trace: capacity must be positive")
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit records an event, evicting the oldest once full.
func (r *Ring) Emit(e Event) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Total returns how many events were emitted over the ring's lifetime.
func (r *Ring) Total() uint64 { return r.total }

// Events returns the retained events in chronological order.
func (r *Ring) Events() []Event {
	if len(r.buf) < cap(r.buf) {
		out := make([]Event, len(r.buf))
		copy(out, r.buf)
		return out
	}
	out := make([]Event, 0, cap(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Filter returns the retained events of the given kind, in chronological
// order. The result is sized exactly from a counting pass over the ring, so
// filtering never pays append's repeated grow-and-copy churn.
func (r *Ring) Filter(k Kind) []Event {
	n := 0
	for i := range r.buf {
		if r.buf[i].Kind == k {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	if len(r.buf) < cap(r.buf) {
		for i := range r.buf {
			if r.buf[i].Kind == k {
				out = append(out, r.buf[i])
			}
		}
		return out
	}
	for i := r.next; i < len(r.buf); i++ {
		if r.buf[i].Kind == k {
			out = append(out, r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		if r.buf[i].Kind == k {
			out = append(out, r.buf[i])
		}
	}
	return out
}

// Last returns the newest n retained events in chronological order (all of
// them when n exceeds the retained count, nil when n <= 0).
func (r *Ring) Last(n int) []Event {
	if n > len(r.buf) {
		n = len(r.buf)
	}
	if n <= 0 {
		return nil
	}
	out := make([]Event, 0, n)
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf[len(r.buf)-n:]...)
	}
	// Newest event sits just before r.next; take the n events ending there.
	start := (r.next - n + cap(r.buf)) % cap(r.buf)
	if start < r.next {
		return append(out, r.buf[start:r.next]...)
	}
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:r.next]...)
}

// WriteTo dumps the retained events.
func (r *Ring) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
