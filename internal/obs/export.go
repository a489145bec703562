package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/metrics"
)

// spanJSON is the JSONL line format. Identity fields are deterministic;
// start_ns/dur_ns are the wall-clock half, present for the slow-cell
// views and stripped by the canonical form.
type spanJSON struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Seq     uint64            `json:"seq,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns"`
}

func hexID(v uint64) string { return fmt.Sprintf("%016x", v) }

func toJSON(sp Span) spanJSON {
	j := spanJSON{
		Trace:   hexID(sp.Trace),
		Span:    hexID(sp.ID),
		Name:    sp.Name,
		Seq:     sp.Seq,
		StartNs: sp.StartNs,
		DurNs:   sp.DurNs,
	}
	if sp.Parent != 0 {
		j.Parent = hexID(sp.Parent)
	}
	if len(sp.Attrs) > 0 {
		j.Attrs = make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			j.Attrs[a.K] = a.V // duplicate keys: last writer wins
		}
	}
	return j
}

func fromJSON(j spanJSON) (Span, error) {
	sp := Span{Name: j.Name, Seq: j.Seq, StartNs: j.StartNs, DurNs: j.DurNs}
	var err error
	if sp.Trace, err = strconv.ParseUint(j.Trace, 16, 64); err != nil {
		return sp, fmt.Errorf("obs: bad trace id %q: %w", j.Trace, err)
	}
	if sp.ID, err = strconv.ParseUint(j.Span, 16, 64); err != nil {
		return sp, fmt.Errorf("obs: bad span id %q: %w", j.Span, err)
	}
	if j.Parent != "" {
		if sp.Parent, err = strconv.ParseUint(j.Parent, 16, 64); err != nil {
			return sp, fmt.Errorf("obs: bad parent id %q: %w", j.Parent, err)
		}
	}
	for _, k := range sortedKeys(j.Attrs) {
		sp.Attrs = append(sp.Attrs, Attr{K: k, V: j.Attrs[k]})
	}
	return sp, nil
}

// WriteJSONL streams spans as JSON Lines in the given order (attribute
// keys sorted by encoding/json; span order is the caller's).
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, sp := range spans {
		if err := enc.Encode(toJSON(sp)); err != nil {
			return fmt.Errorf("obs: writing span %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a span JSONL stream. Blank lines are tolerated;
// anything else that fails to parse is an error with its line number.
func ReadJSONL(r io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var j spanJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", line, err)
		}
		sp, err := fromJSON(j)
		if err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", line, err)
		}
		out = append(out, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading spans: %w", err)
	}
	return out, nil
}

// SortCanonical orders spans by their deterministic identity — (trace,
// parent, name, seq, id) — erasing completion order, which is the only
// scheduling-dependent part of a span set.
func SortCanonical(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.ID < b.ID
	})
}

// CanonicalJSONL renders spans in their canonical byte form: wall-clock
// fields zeroed, spans sorted by deterministic identity. Two runs of the
// same campaign — any worker counts — canonicalize to identical bytes;
// the byte-identity regression suite pins exactly that.
func CanonicalJSONL(spans []Span) ([]byte, error) {
	canon := make([]Span, len(spans))
	copy(canon, spans)
	for i := range canon {
		canon[i].StartNs = 0
		canon[i].DurNs = 0
	}
	SortCanonical(canon)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, canon); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ChromeEvents converts spans to trace-event records loadable in Perfetto
// next to the PR 2 simulator tracks: each trace (campaign cell) gets its
// own named thread track, spans become complete ("X") events at
// microsecond granularity. Load the campaign file alongside a
// cleanupspec-sim -trace-out file and one timeline shows sim-internal
// and campaign-level activity together.
func ChromeEvents(spans []Span, pid int) []metrics.ChromeEvent {
	if pid == 0 {
		pid = 1
	}
	// Assign one tid per trace, in canonical (trace id) order with root
	// names as track labels.
	rootName := make(map[uint64]string)
	var traceIDs []uint64
	for _, sp := range spans {
		if _, ok := rootName[sp.Trace]; !ok {
			rootName[sp.Trace] = ""
			traceIDs = append(traceIDs, sp.Trace)
		}
		if sp.Root() {
			rootName[sp.Trace] = sp.Name
		}
	}
	sort.Slice(traceIDs, func(i, j int) bool { return traceIDs[i] < traceIDs[j] })
	tid := make(map[uint64]int, len(traceIDs))
	var out []metrics.ChromeEvent
	out = append(out, metrics.ChromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "campaign"},
	})
	for i, tr := range traceIDs {
		tid[tr] = i + 1
		name := rootName[tr]
		if name == "" {
			name = hexID(tr)
		}
		out = append(out, metrics.ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
			Args: map[string]any{"name": name},
		})
	}
	for _, sp := range spans {
		args := map[string]any{"trace": hexID(sp.Trace), "span": hexID(sp.ID)}
		for _, a := range sp.Attrs {
			args[a.K] = a.V
		}
		out = append(out, metrics.ChromeEvent{
			Name: sp.Name, Ph: "X",
			Ts:  uint64(sp.StartNs / 1000),
			Dur: uint64(sp.DurNs / 1000),
			Pid: pid, Tid: tid[sp.Trace], Cat: "campaign",
			Args: args,
		})
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
