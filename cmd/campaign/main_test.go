package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestViewsNeedAnExistingCache points the read-only views at a mistyped
// cache path: each must fail with "no cache at", and none may leave the
// directory behind.
func TestViewsNeedAnExistingCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	views := []struct {
		name string
		run  func([]string) error
	}{{"inspect", cmdInspect}, {"export", cmdExport}}
	for _, v := range views {
		err := v.run([]string{"-cache", dir})
		if err == nil || !strings.Contains(err.Error(), "no cache at "+dir) {
			t.Errorf("%s: err = %v, want \"no cache at %s\"", v.name, err, dir)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s created the missing cache directory (stat: %v)", v.name, err)
		}
	}
}
