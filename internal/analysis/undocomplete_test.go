package analysis

import (
	"os"
	"strings"
	"testing"
)

// TestRepoUndoObligations is the acceptance check for the undo-complete
// invariant on the real module: every (struct, field) the speculative
// path mutates in internal/{cache,memsys,coherence} must either have a
// restore write reachable from the cleanup/squash path or carry a
// justified //simlint:allow undocomplete directive at the mutation site.
// It also requires the classifier to have found real pairings, so a
// regression that blinds the root detection cannot pass vacuously.
func TestRepoUndoObligations(t *testing.T) {
	report := UndoObligations(repoModule(t))
	if len(report.Obligations) == 0 {
		t.Fatal("no undo obligations found; the speculative-root classifier went blind")
	}

	paired, cachePaired := 0, 0
	for _, o := range report.Obligations {
		if o.Paired {
			paired++
			if strings.Contains(o.Struct, "/internal/cache.") {
				cachePaired++
			}
			continue
		}
		if !allowDirectiveAt(t, o.MutationPos.Filename, o.MutationPos.Line) {
			t.Errorf("unpaired obligation %s.%s at %s:%d has no justified //simlint:allow undocomplete directive",
				o.Struct, o.Field, o.MutationPos.Filename, o.MutationPos.Line)
		}
	}
	if paired == 0 {
		t.Error("no obligation is paired with a restore write; cleanup-side detection went blind")
	}
	if cachePaired == 0 {
		t.Error("no internal/cache obligation is paired; the paper's core undo path is not being tracked")
	}
}

// allowDirectiveAt reports whether the mutation line (or the line above
// it) carries an undocomplete allow directive.
func allowDirectiveAt(t *testing.T, filename string, line int) bool {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("reading %s: %v", filename, err)
	}
	lines := strings.Split(string(data), "\n")
	for _, ln := range []int{line, line - 1} {
		if ln >= 1 && ln <= len(lines) &&
			strings.Contains(lines[ln-1], "//simlint:allow") &&
			strings.Contains(lines[ln-1], "undocomplete") {
			return true
		}
	}
	return false
}
