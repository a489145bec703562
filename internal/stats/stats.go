// Package stats provides the counters, derived metrics, and table/series
// formatting shared by the experiment harness, the paperbench command, and
// the benchmark suite.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Geomean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny positive value so a single zero does not collapse the
// mean; callers should not normally pass zeros. Use GeomeanClamped when the
// caller needs to know whether clamping happened (a clamped entry means a
// pathological cell is being averaged away).
func Geomean(xs []float64) float64 {
	g, _ := GeomeanClamped(xs)
	return g
}

// GeomeanClamped returns the geometric mean of xs and the number of
// non-positive entries that had to be clamped to compute it. A non-zero
// clamp count means the mean is not trustworthy as-is: some cell produced a
// zero or negative value (a stalled run, a division by zero upstream) and
// callers should surface it rather than hide it in the average.
func GeomeanClamped(xs []float64) (geomean float64, clamped int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
			clamped++
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), clamped
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Slowdown converts a normalized execution time into a percentage slowdown
// (1.051 -> 5.1).
func Slowdown(normalized float64) float64 { return (normalized - 1) * 100 }

// Table accumulates rows of strings and renders them as an aligned,
// monospace table. It is deliberately minimal: the harness prints tables to
// stdout and to EXPERIMENTS.md.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row. Cells beyond the header width are kept and get
// best-effort alignment.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row where each cell is formatted with fmt.Sprintf from
// (format, value) alternation handled by the caller; this is a convenience
// for the common "name + numbers" shape.
func (t *Table) AddRowf(name string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, name)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.2f", v))
	}
	t.AddRow(cells...)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// MarshalJSON serializes the table as {title, header, rows}.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{t.Title, t.header, t.rows})
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV: the header row followed by the
// data rows. The title is not included — callers that concatenate several
// tables into one file (paperbench -csv) prefix their own `# title`
// comment lines.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.header)
	for _, row := range t.rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Series is a named sequence of (label, value) points — the textual
// equivalent of one bar-chart series in the paper's figures.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends a point.
func (s *Series) Add(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// Bars renders the series as labeled ASCII bars scaled to maxWidth columns.
func (s *Series) Bars(maxWidth int) string {
	var b strings.Builder
	if s.Name != "" {
		b.WriteString(s.Name)
		b.WriteByte('\n')
	}
	maxLabel := 0
	maxVal := 0.0
	for i, l := range s.Labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
		if s.Values[i] > maxVal {
			maxVal = s.Values[i]
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	for i, l := range s.Labels {
		n := int(math.Round(s.Values[i] / maxVal * float64(maxWidth)))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s %8.3f %s\n", maxLabel, l, s.Values[i], strings.Repeat("#", n))
	}
	return b.String()
}

// sparkRunes are the eight block heights used by Sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a one-line unicode block graph scaled to the
// series' own [min, max] range (a flat series renders as all-low blocks).
// It is the phase-plot primitive of cleanupspec-sim and campaign inspect.
func Sparkline(vals []float64) string {
	lo, hi := MinMax(vals)
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// MinMax returns the smallest and largest of vals (0, 0 when empty).
func MinMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// SortedKeys returns the keys of m in sorted order; used to print maps
// deterministically.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
