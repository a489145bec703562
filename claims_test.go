package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSecurityClaimsNameRealTests keeps EXPERIMENTS.md's "Security claims"
// table honest: every row must name at least one test, and each named test
// (TestX, or every test starting TestX for TestX*) must be declared in the
// _test.go files of the package named before it in backticks.
func TestSecurityClaimsNameRealTests(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Security claims")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Security claims" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	sources := make(map[string]string) // package dir → its _test.go files
	testSource := func(dir string) string {
		if src, ok := sources[dir]; ok {
			return src
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		var b strings.Builder
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		sources[dir] = b.String()
		return sources[dir]
	}

	rows := 0
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 4 {
			continue
		}
		claim, where := strings.TrimSpace(cells[1]), cells[2]
		if claim == "Claim" || strings.HasPrefix(claim, "---") {
			continue
		}
		rows++
		pkg, named := "", 0
		for _, tok := range strings.Fields(strings.ReplaceAll(where, ",", " ")) {
			if dir := strings.Trim(tok, "`"); tok != dir {
				if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
					pkg = dir
				}
				continue
			}
			if !strings.HasPrefix(tok, "Test") {
				continue
			}
			named++
			if pkg == "" {
				t.Errorf("claim %q: %s follows no backticked package", claim, tok)
				continue
			}
			name, prefix := strings.CutSuffix(tok, "*")
			pattern := `(?m)^func ` + regexp.QuoteMeta(name)
			if prefix {
				pattern += `\w*`
			}
			if !regexp.MustCompile(pattern + `\(t \*testing\.T\)`).MatchString(testSource(pkg)) {
				t.Errorf("claim %q: %s declares no %s", claim, pkg, tok)
			}
		}
		if named == 0 {
			t.Errorf("claim %q names no test", claim)
		}
	}
	if rows == 0 {
		t.Fatal("the Security claims table has no rows")
	}
}
