package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("geomean %v, want 2", g)
	}
	if Geomean(nil) != 0 {
		t.Fatal("empty geomean must be 0")
	}
	// A zero entry is clamped, not fatal.
	if g := Geomean([]float64{0, 1}); g <= 0 {
		t.Fatalf("clamped geomean %v", g)
	}
}

func TestGeomeanClamped(t *testing.T) {
	g, n := GeomeanClamped([]float64{1, 4})
	if math.Abs(g-2) > 1e-9 || n != 0 {
		t.Fatalf("clean input: geomean %v clamped %d", g, n)
	}
	if _, n := GeomeanClamped([]float64{0, 1, -2, 3}); n != 2 {
		t.Fatalf("clamp count %d, want 2", n)
	}
	if g, n := GeomeanClamped(nil); g != 0 || n != 0 {
		t.Fatal("empty input")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline must be empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if got := []rune(s); len(got) != 4 || got[0] != '▁' || got[3] != '█' {
		t.Fatalf("sparkline %q: want min block first, max block last", s)
	}
	// A flat series must not divide by zero and renders all-low.
	if s := Sparkline([]float64{5, 5, 5}); s != "▁▁▁" {
		t.Fatalf("flat sparkline %q", s)
	}
	if lo, hi := MinMax([]float64{3, -1, 7, 2}); lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v, want -1, 7", lo, hi)
	}
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Fatalf("MinMax(nil) = %v, %v, want 0, 0", lo, hi)
	}
}

func TestMeanAndSlowdown(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if s := Slowdown(1.051); math.Abs(s-5.1) > 1e-9 {
		t.Fatalf("slowdown %v", s)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("T", "a", "bb")
	tab.AddRow("x", "1")
	tab.AddRowf("y", 2.5)
	s := tab.String()
	for _, want := range []string{"T", "a", "bb", "x", "2.50", "--"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| x | 1 |") {
		t.Fatalf("markdown:\n%s", md)
	}
}

func TestTableJSON(t *testing.T) {
	tab := NewTable("T", "a")
	tab.AddRow("1")
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "T" || len(got.Header) != 1 || len(got.Rows) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestSeriesBars(t *testing.T) {
	s := &Series{Name: "S"}
	s.Add("one", 1)
	s.Add("two", 2)
	out := s.Bars(10)
	if !strings.Contains(out, "S") || !strings.Contains(out, "##########") {
		t.Fatalf("bars:\n%s", out)
	}
	// All-zero series must not divide by zero.
	z := &Series{}
	z.Add("zero", 0)
	_ = z.Bars(10)
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]int{"b": 1, "a": 2})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("keys %v", got)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Title ignored", "Workload", "Slowdown")
	tb.AddRow("astar", "5.1%")
	tb.AddRow(`with,comma`, `with "quote"`)
	got := tb.CSV()
	want := "Workload,Slowdown\n" +
		"astar,5.1%\n" +
		"\"with,comma\",\"with \"\"quote\"\"\"\n"
	if got != want {
		t.Fatalf("CSV:\ngot  %q\nwant %q", got, want)
	}
	if strings.Contains(got, "Title") {
		t.Fatal("CSV must not include the title")
	}
}
