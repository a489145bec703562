package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsFullyInert(t *testing.T) {
	var tr *Tracer
	if NewTracer(nil) != nil {
		t.Fatal("NewTracer(nil) should return the nil (disabled) tracer")
	}
	sp := tr.Trace("cell", "key")
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	child := sp.Child("simulate")
	if child != nil {
		t.Fatal("nil span handed out a child")
	}
	child.SetAttr("k", "v")
	child.End()
	sp.End()
	tr.Instant("fault", "key")
	if tr.Sink() != nil {
		t.Fatal("nil tracer reported a sink")
	}
	if got := tr.Sink().Stats(); got != (SinkStats{}) {
		t.Fatalf("nil sink stats = %+v", got)
	}
}

func TestSpanIDsAreContentDerived(t *testing.T) {
	build := func() []Span {
		sink := NewSink()
		tr := NewTracer(sink)
		root := tr.Trace("cell", "wl=gcc/policy=cleanupspec/seed=1")
		probe := root.Child("cache-probe")
		probe.SetAttr("hit", "false")
		probe.End()
		for attempt := 0; attempt < 2; attempt++ {
			sim := root.Child("simulate")
			sim.SetAttr("attempt", fmt.Sprint(attempt))
			sim.End()
		}
		root.End()
		spans := sink.Spans()
		SortCanonical(spans)
		return spans
	}
	a, b := build(), build()
	if len(a) != 4 {
		t.Fatalf("got %d spans, want 4: %v", len(a), a)
	}
	for i := range a {
		ca, cb := a[i], b[i]
		ca.StartNs, ca.DurNs = 0, 0
		cb.StartNs, cb.DurNs = 0, 0
		ca.sink, cb.sink = nil, nil
		var zero time.Time
		ca.start, cb.start = zero, zero
		ca.kids, cb.kids = nil, nil
		if fmt.Sprintf("%+v", ca) != fmt.Sprintf("%+v", cb) {
			t.Fatalf("span %d differs across identical runs:\n%+v\n%+v", i, ca, cb)
		}
	}
	// Retry siblings share a name but not an identity.
	var sims []Span
	for _, sp := range a {
		if sp.Name == "simulate" {
			sims = append(sims, sp)
		}
	}
	if len(sims) != 2 || sims[0].ID == sims[1].ID || sims[0].Seq == sims[1].Seq {
		t.Fatalf("retry spans not disambiguated: %v", sims)
	}
	// Different trace keys give different trace IDs.
	sink := NewSink()
	tr := NewTracer(sink)
	r1 := tr.Trace("cell", "key-one")
	r2 := tr.Trace("cell", "key-two")
	if r1.ID == r2.ID {
		t.Fatal("distinct keys hashed to the same trace ID")
	}
	r1.End()
	r2.End()
}

func TestEndIsIdempotentAndStatsBalance(t *testing.T) {
	sink := NewSink()
	tr := NewTracer(sink)
	root := tr.Trace("cell", "k")
	child := root.Child("simulate")
	child.End()
	child.End() // double End: second is a no-op
	root.End()
	root.End()
	st := sink.Stats()
	if st.Started != 2 || st.Ended != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 2/2/0", st)
	}
	if n := len(sink.Spans()); n != 2 {
		t.Fatalf("retained %d spans, want 2", n)
	}
}

func TestSinkBoundDropsNotGrows(t *testing.T) {
	sink := NewSink()
	sink.MaxSpans = 3
	tr := NewTracer(sink)
	for i := 0; i < 5; i++ {
		tr.Instant("evt", fmt.Sprintf("k%d", i))
	}
	st := sink.Stats()
	if st.Started != 5 || st.Ended != 3 || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want started=5 ended=3 dropped=2", st)
	}
	if n := len(sink.Spans()); n != 3 {
		t.Fatalf("retained %d spans, want 3", n)
	}
}

func TestSinkConcurrentUse(t *testing.T) {
	sink := NewSink()
	tr := NewTracer(sink)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.Trace("cell", fmt.Sprintf("w%d/i%d", w, i))
				root.Child("simulate").End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	st := sink.Stats()
	if st.Started != 800 || st.Ended != 800 {
		t.Fatalf("stats = %+v, want 800 started and ended", st)
	}
}

func TestJSONLRoundTripAndCanonicalForm(t *testing.T) {
	sink := NewSink()
	tr := NewTracer(sink)
	root := tr.Trace("cell", "k")
	probe := root.Child("cache-probe", Attr{K: "hit", V: "true"})
	probe.End()
	root.End()

	spans := sink.Spans()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("round trip: %d spans, want %d", len(back), len(spans))
	}
	for i := range back {
		if back[i].Trace != spans[i].Trace || back[i].ID != spans[i].ID ||
			back[i].Parent != spans[i].Parent || back[i].Name != spans[i].Name ||
			back[i].Seq != spans[i].Seq || back[i].StartNs != spans[i].StartNs ||
			back[i].DurNs != spans[i].DurNs {
			t.Fatalf("span %d mangled by round trip:\n%+v\n%+v", i, spans[i], back[i])
		}
	}

	// Canonical form strips wall fields: rebuilding the same trace must
	// give identical canonical bytes even though wall durations differ.
	sink2 := NewSink()
	tr2 := NewTracer(sink2)
	root2 := tr2.Trace("cell", "k")
	probe2 := root2.Child("cache-probe", Attr{K: "hit", V: "true"})
	probe2.End()
	root2.End()

	c1, err := CanonicalJSONL(spans)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CanonicalJSONL(sink2.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical forms differ:\n%s\n---\n%s", c1, c2)
	}
	if bytes.Contains(c1, []byte(`"start_ns":`)) && !bytes.Contains(c1, []byte(`"start_ns":0`)) {
		t.Fatalf("canonical form kept wall fields:\n%s", c1)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewReader([]byte("not json\n"))); err == nil {
		t.Fatal("garbage line parsed without error")
	}
	if _, err := ReadJSONL(bytes.NewReader([]byte(`{"trace":"zz","span":"01","name":"x"}` + "\n"))); err == nil {
		t.Fatal("bad hex trace id parsed without error")
	}
	spans, err := ReadJSONL(bytes.NewReader([]byte("\n\n")))
	if err != nil || len(spans) != 0 {
		t.Fatalf("blank lines: spans=%v err=%v", spans, err)
	}
}

func TestChromeEventsShape(t *testing.T) {
	sink := NewSink()
	tr := NewTracer(sink)
	root := tr.Trace("gcc/cleanupspec/s1", "key-a")
	root.Child("simulate").End()
	root.End()
	tr.Instant("fault", "key-b", Attr{K: "site", V: "cache-read"})

	events := ChromeEvents(sink.Spans(), 7)
	// 1 process_name + 2 thread_name + 3 span events.
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6: %+v", len(events), events)
	}
	var meta, x int
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Pid != 7 {
				t.Fatalf("metadata event on pid %d, want 7", ev.Pid)
			}
		case "X":
			x++
			if ev.Tid == 0 {
				t.Fatalf("span event without a thread track: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 || x != 3 {
		t.Fatalf("meta=%d x=%d, want 3/3", meta, x)
	}
}
