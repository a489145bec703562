package analysis

import (
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// repo holds the real module, loaded at most once per test binary.
var repo struct {
	once sync.Once
	mod  *Module
	err  error
}

// repoModule returns the type-checked real module, shared by every
// whole-repo test: a Module is read-only after Load, and each test builds
// its own Runner over it, as TestParallelMatchesSerial does.
func repoModule(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	repo.once.Do(func() {
		repo.mod, repo.err = Load(filepath.Join("..", ".."))
	})
	if repo.err != nil {
		t.Fatalf("load repo module: %v", repo.err)
	}
	return repo.mod
}

// wantRe extracts `// want `regex“ expectations from golden-file
// comments. The marker may ride a trailing comment on the offending line
// or be embedded in a directive comment that is itself the finding.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// TestGolden runs the whole suite over testdata/src and requires exact
// correspondence between findings and // want expectations: every finding
// must match an unused want on its own file:line, and every want must be
// consumed.
func TestGolden(t *testing.T) {
	mod, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("load testdata module: %v", err)
	}
	findings := NewRunner(mod).Run(Analyzers(), nil)

	var wants []*want
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := mod.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no // want expectations found in testdata/src")
	}

	seen := make(map[string]int)
	for _, f := range findings {
		seen[f.Analyzer]++
		matched := false
		for _, w := range wants {
			if !w.used && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}

	// Every analyzer in the suite (plus the directive pseudo-analyzer)
	// must demonstrate at least one caught violation in the golden input.
	for _, a := range Analyzers() {
		if seen[a.Name] == 0 {
			t.Errorf("analyzer %s caught nothing in testdata/src", a.Name)
		}
	}
	if seen["directive"] == 0 {
		t.Error("no malformed-directive finding in testdata/src")
	}
}

// TestRepoLintsClean loads the real module and requires the full suite to
// come back empty: every true positive is fixed and every deliberate
// exception carries a justified directive.
func TestRepoLintsClean(t *testing.T) {
	mod := repoModule(t)
	if mod.Path != "repro" {
		t.Fatalf("loaded module %q, want repro", mod.Path)
	}
	findings := NewRunner(mod).Run(Analyzers(), nil)
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// TestAnalyzerByName covers suite lookup, which the CLI's -enable/-disable
// flags and directive validation both rely on.
func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		got, ok := AnalyzerByName(a.Name)
		if !ok || got != a {
			t.Errorf("AnalyzerByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := AnalyzerByName("nope"); ok {
		t.Error("AnalyzerByName accepted an unknown name")
	}
}

// TestDirectiveSuppresses pins the directive-to-analyzer matching rules.
func TestDirectiveSuppresses(t *testing.T) {
	cases := []struct {
		d        *directive
		analyzer string
		want     bool
	}{
		{&directive{verb: "ordered"}, "determinism", true},
		{&directive{verb: "ordered"}, "enumexhaustive", false},
		{&directive{verb: "allow", analyzers: []string{"enumexhaustive"}}, "enumexhaustive", true},
		{&directive{verb: "allow", analyzers: []string{"enumexhaustive"}}, "determinism", false},
		{&directive{verb: "allow", analyzers: []string{"undocomplete", "cyclemath"}}, "cyclemath", true},
	}
	for _, c := range cases {
		if got := c.d.suppresses(c.analyzer); got != c.want {
			t.Errorf("{verb:%s analyzers:%v} suppresses %s = %v, want %v", c.d.verb, c.d.analyzers, c.analyzer, got, c.want)
		}
	}
}

// TestParallelMatchesSerial requires the worker-pool driver to produce
// findings byte-identical to a serial run, for any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	mod, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("load testdata module: %v", err)
	}
	serialRunner := NewRunner(mod)
	serialRunner.Workers = 1
	serial := serialRunner.Run(Analyzers(), nil)
	for _, workers := range []int{2, 4, 16} {
		r := NewRunner(mod)
		r.Workers = workers
		got := r.Run(Analyzers(), nil)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d findings, serial has %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i].String() != serial[i].String() {
				t.Errorf("workers=%d: finding %d = %q, serial has %q", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestSortFindingsTieBreak pins the same-position ordering: analyzer
// name first, then message.
func TestSortFindingsTieBreak(t *testing.T) {
	mk := func(analyzer, msg string) Finding {
		f := Finding{Analyzer: analyzer, Message: msg}
		f.Pos.Filename = "x.go"
		f.Pos.Line = 10
		f.Pos.Column = 2
		return f
	}
	got := []Finding{
		mk("lockorder", "b"),
		mk("determinism", "z"),
		mk("lockorder", "a"),
		mk("determinism", "a"),
	}
	sortFindings(got)
	wantOrder := []string{
		"determinism:a", "determinism:z", "lockorder:a", "lockorder:b",
	}
	for i, f := range got {
		if key := f.Analyzer + ":" + f.Message; key != wantOrder[i] {
			t.Errorf("position %d = %s, want %s", i, key, wantOrder[i])
		}
	}
}

// TestFindingString pins the file:line:col rendering the CLI prints.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "determinism", Message: "boom"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, wantStr := f.String(), "x.go:3:7: determinism: boom"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}
