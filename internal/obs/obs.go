// Package obs is the orchestration layer's observability plane: a
// deterministic, span-based tracing substrate for everything that happens
// *around* the simulator — campaign engine stages (lease → cache-probe →
// simulate → verify → journal-append), fault-injection events, and
// specfuzz oracle phases. PR 2's internal/metrics made the simulator
// transparent; obs does the same for the layers that schedule it, so a
// long grid or fuzz campaign is a timeline instead of a spinner.
//
// The design constraint mirrors the metrics registry's: observation must
// be deterministic and must cost nothing when off.
//
//   - Span identities are content-derived (xrand.Hash64 over the trace
//     key, the span name, and a per-parent sequence number), never
//     wall-clock or worker-id derived. Two runs of the same campaign —
//     serial or on an 8-worker pool — produce the same span set with the
//     same IDs; only the wall-duration fields differ, and CanonicalJSONL
//     strips exactly those, so traced output is byte-comparable across
//     worker counts.
//   - A nil *Tracer (or a Tracer over a nil *Sink) is the off switch:
//     every method is nil-safe, returns nil spans, and allocates nothing,
//     which the zero-alloc benchmark pins. The campaign engine's hot path
//     pays one nil check per stage and nothing else.
//   - The Sink is mutex-guarded (campaign workers share it) and bounded:
//     past MaxSpans, finished spans are counted as dropped instead of
//     growing without limit. Stats reports started/ended/dropped, so a
//     writer can warn when the trace was truncated.
package obs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/xrand"
)

// DefaultMaxSpans bounds a sink: a 19-workload × 7-policy × 5-seed grid
// emits ~6 spans per cell (~4k total), so the default keeps even a large
// campaign whole while capping a runaway emitter.
const DefaultMaxSpans = 1 << 18

// Attr is one span attribute. Attribute values must be deterministic in
// the traced computation (cell names, cache keys, attempt numbers, hit or
// miss) — never wall times or worker ids — so the canonical span stream
// stays byte-identical across runs and worker counts.
type Attr struct {
	K, V string
}

// String renders an attribute for logs.
func (a Attr) String() string { return a.K + "=" + a.V }

// Span is one traced operation. Identity fields (Trace, ID, Parent, Name,
// Seq, Attrs) are deterministic; StartNs/DurNs are wall-clock measurements
// for the slow-cell views and are excluded from the canonical form.
type Span struct {
	sink *Sink

	// Trace is the content-derived trace ID shared by a root span and all
	// its descendants (one trace per campaign cell / fuzz pair).
	Trace uint64
	// ID is the span's content-derived identity.
	ID uint64
	// Parent is the parent span's ID (0 for a root span).
	Parent uint64
	// Name is the operation ("cache-probe", "simulate", "timing-a").
	Name string
	// Seq disambiguates same-named siblings (retry attempts): the n-th
	// child of one parent with one name has Seq n (0-based).
	Seq uint64
	// Attrs are the span's deterministic key/value annotations.
	Attrs []Attr

	// StartNs is the span's start, in wall nanoseconds since the sink was
	// created. Nondeterministic; stripped by CanonicalJSONL.
	StartNs int64
	// DurNs is the span's wall duration in nanoseconds. Nondeterministic;
	// stripped by CanonicalJSONL.
	DurNs int64

	start time.Time
	// kids counts children per name, assigning deterministic Seq values.
	kids map[string]uint64
	// ended guards against double End (the engine ends roots on every
	// return path).
	ended bool
}

// SinkStats counts the sink's own activity: whether the trace is complete
// or was truncated by the span bound.
type SinkStats struct {
	// Started counts spans handed out (Tracer.Trace, Span.Child).
	Started uint64
	// Ended counts spans that completed and were retained.
	Ended uint64
	// Dropped counts spans that completed after the sink hit MaxSpans and
	// were discarded instead of retained.
	Dropped uint64
}

// Sink collects finished spans. It is safe for concurrent use by campaign
// workers; all methods are nil-safe (a nil sink swallows everything for
// free, which is how tracing is switched off).
type Sink struct {
	// MaxSpans bounds retained spans (0 = DefaultMaxSpans). Set before
	// the first span ends.
	MaxSpans int

	mu    sync.Mutex
	stats SinkStats
	spans []Span
	base  time.Time
}

// NewSink returns an empty sink with the default span bound.
func NewSink() *Sink {
	return &Sink{base: time.Now()}
}

// Stats returns a copy of the sink's own counters.
func (s *Sink) Stats() SinkStats {
	if s == nil {
		return SinkStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Spans returns the finished spans in completion order. The order is
// scheduling-dependent under a worker pool; sort with SortCanonical (or
// export with CanonicalJSONL) before comparing runs.
func (s *Sink) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Span, len(s.spans))
	copy(out, s.spans)
	return out
}

// started counts one span handout.
func (s *Sink) started() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Started++
}

// finish retains one completed span (or drops it past the bound).
func (s *Sink) finish(sp *Span) {
	maxSpans := s.MaxSpans
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) >= maxSpans {
		s.stats.Dropped++
	} else {
		s.stats.Ended++
		s.spans = append(s.spans, *sp)
	}
}

// Tracer hands out spans bound to one sink. A nil tracer (or a tracer
// over a nil sink) is the disabled state: every method no-ops without
// allocating, so instrumentation sites need no conditionals.
type Tracer struct {
	sink *Sink
}

// NewTracer returns a tracer writing to sink (nil sink = disabled tracer).
func NewTracer(sink *Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Sink returns the tracer's sink (nil when disabled).
func (t *Tracer) Sink() *Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// Trace starts a root span: one trace per unit of work (campaign cell,
// fuzz pair). key is the content identity the trace ID derives from — the
// cell's cache key, typically — so the same cell traces to the same IDs
// in every run regardless of scheduling.
func (t *Tracer) Trace(name, key string) *Span {
	if t == nil || t.sink == nil {
		return nil
	}
	t.sink.started()
	id := xrand.Hash64(hashString(key) ^ hashString(name))
	return &Span{
		sink:    t.sink,
		Trace:   id,
		ID:      id,
		Name:    name,
		StartNs: int64(time.Since(t.sink.base)),
		start:   time.Now(),
	}
}

// Instant records a zero-duration root span (fault events, one-shot
// markers). Determinism of the ID rests on (key, name) alone.
func (t *Tracer) Instant(name, key string, attrs ...Attr) {
	sp := t.Trace(name, key)
	if sp != nil {
		sp.Attrs = append(sp.Attrs, attrs...)
	}
	sp.End()
}

// Child starts a sub-span. The child's ID derives from the parent's ID,
// the name, and a per-(parent, name) sequence number — content only, so
// retries trace deterministically too. Safe on a nil span.
func (sp *Span) Child(name string, attrs ...Attr) *Span {
	if sp == nil {
		return nil
	}
	if sp.kids == nil {
		sp.kids = make(map[string]uint64)
	}
	seq := sp.kids[name]
	sp.kids[name] = seq + 1
	sp.sink.started()
	return &Span{
		sink:    sp.sink,
		Trace:   sp.Trace,
		ID:      xrand.Hash64(sp.ID ^ hashString(name) ^ (seq + 1)),
		Parent:  sp.ID,
		Name:    name,
		Seq:     seq,
		Attrs:   attrs,
		StartNs: int64(time.Since(sp.sink.base)),
		start:   time.Now(),
	}
}

// SetAttr appends one attribute. Safe on a nil span.
func (sp *Span) SetAttr(k, v string) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{K: k, V: v})
}

// End completes the span and hands it to the sink. Safe on a nil span and
// idempotent, so every engine return path can end the root
// unconditionally.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	sp.DurNs = int64(time.Since(sp.start))
	sp.sink.finish(sp)
}

// Root reports whether the span is a trace root.
func (sp Span) Root() bool { return sp.Parent == 0 }

// String renders the span for logs and test failures.
func (sp Span) String() string {
	return fmt.Sprintf("%016x/%016x %s seq=%d dur=%s", sp.Trace, sp.ID, sp.Name, sp.Seq, time.Duration(sp.DurNs))
}

// hashString is FNV-1a 64, the string-folding half of the span ID
// derivation (xrand.Hash64 mixes the result).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
