package metrics

import (
	"strings"
	"testing"
)

func TestCounterKinds(t *testing.T) {
	reg := NewRegistry()
	owned := reg.Counter("owned")
	var field uint64
	reg.BindCounter("bound", &field)
	derived := uint64(0)
	reg.CounterFunc("derived", func() uint64 { return derived * 2 })

	owned.Inc()
	owned.Add(4)
	field = 7
	derived = 3

	for name, want := range map[string]uint64{"owned": 5, "bound": 7, "derived": 6} {
		got, ok := reg.CounterValue(name)
		if !ok || got != want {
			t.Errorf("CounterValue(%q) = %d, %v; want %d, true", name, got, ok, want)
		}
	}
	if _, ok := reg.CounterValue("missing"); ok {
		t.Error("CounterValue of unregistered name reported ok")
	}
}

func TestBindCounterSurvivesStatsReset(t *testing.T) {
	// The simulator resets stats structs by value (stats = Stats{}); a
	// binding to a field of a long-lived owner must read the new value.
	type owner struct{ stats struct{ N uint64 } }
	o := &owner{}
	reg := NewRegistry()
	reg.BindCounter("n", &o.stats.N)
	o.stats.N = 42
	o.stats = struct{ N uint64 }{} // the reset idiom
	o.stats.N = 7
	if got, _ := reg.CounterValue("n"); got != 7 {
		t.Fatalf("bound counter after reset = %d, want 7", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("x")
	reg.Counter("x")
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1024} {
		h.Observe(v)
	}
	if h.Count() != 8 || h.Min() != 0 || h.Max() != 1024 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if want := uint64(0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024); h.Sum() != want {
		t.Fatalf("sum=%d want %d", h.Sum(), want)
	}
	want := []Bucket{
		{Lo: 0, Hi: 0, Count: 1},  // 0
		{Lo: 1, Hi: 1, Count: 1},  // 1
		{Lo: 2, Hi: 3, Count: 2},  // 2, 3
		{Lo: 4, Hi: 7, Count: 2},  // 4, 7
		{Lo: 8, Hi: 15, Count: 1}, // 8
		{Lo: 1024, Hi: 2047, Count: 1},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if !strings.Contains(h.String(), "count=8") {
		t.Errorf("String() missing summary line:\n%s", h.String())
	}
	if (&Histogram{}).String() != "(empty)\n" {
		t.Error("empty histogram did not render as (empty)")
	}
}

func TestNamesAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count")
	reg.Counter("a.count")
	reg.GaugeFunc("g.occ", func() float64 { return 1.5 })
	h := reg.Histogram("h.lat")
	h.Observe(3)

	names := reg.Names(KindCounter)
	if len(names) != 2 || names[0] != "a.count" || names[1] != "b.count" {
		t.Fatalf("Names(KindCounter) = %v, want sorted [a.count b.count]", names)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 2 || snap.Gauges["g.occ"] != 1.5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	hs, ok := snap.Histograms["h.lat"]
	if !ok || hs.Count != 1 || hs.Sum != 3 {
		t.Fatalf("hist snapshot = %+v", hs)
	}
	if _, ok := reg.HistogramByName("h.lat"); !ok {
		t.Fatal("HistogramByName missed a registered histogram")
	}
}

// TestHotPathZeroAlloc is the contract the whole design hangs on: counter
// increments and histogram observations on the simulator's cycle loop must
// never allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	var field uint64
	reg.BindCounter("f", &field)
	h := reg.Histogram("h")
	v := uint64(0)

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { field++ }); n != 0 {
		t.Errorf("bound field increment allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 37 }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}

// BenchmarkRegistry is the CI bench guard for the hot path (run with
// -benchtime=100x; the zero-alloc assertion lives in TestHotPathZeroAlloc).
func BenchmarkRegistry(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("c")
	var field uint64
	reg.BindCounter("f", &field)
	h := reg.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		field++
		h.Observe(uint64(i))
	}
}
