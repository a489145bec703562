package main

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestPackageMatcherRejectsUnmatchedPattern: a pattern that names no
// package must be a usage error, not a lint run over nothing that exits
// clean.
func TestPackageMatcherRejectsUnmatchedPattern(t *testing.T) {
	cwd := t.TempDir()
	pkgDir := filepath.Join(cwd, "internal", "cache")
	mod := &analysis.Module{Pkgs: []*analysis.Package{{Dir: pkgDir}}}

	if _, err := packageMatcher(cwd, mod, []string{"./nosuch"}); err == nil {
		t.Error("./nosuch matched, want an error")
	}
	for _, pat := range []string{"./...", "./internal/cache"} {
		match, err := packageMatcher(cwd, mod, []string{pat})
		if err != nil {
			t.Errorf("%s: %v", pat, err)
			continue
		}
		if !match(mod.Pkgs[0]) {
			t.Errorf("%s does not select %s", pat, pkgDir)
		}
	}
}
