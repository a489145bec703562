package campaign

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Flaw is one damaged file found by Fsck.
type Flaw struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// FsckReport is the result of a cache-directory integrity scan.
type FsckReport struct {
	Dir string

	Scanned int    // entry files examined
	OK      int    // current-schema entries that verified clean
	Foreign int    // valid entries from other schema versions (kept)
	Corrupt []Flaw // unparseable / checksum-mismatched / misfiled entries
	Orphans []Flaw // leftover temp files from interrupted writes

	Pruned []string // removed by -prune
}

// Clean reports whether the scan found nothing to repair: no corrupt and
// no orphaned entry files.
func (r *FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Orphans) == 0
}

// String renders the operator-facing summary `campaign fsck` prints.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck %s: %d entr(ies) scanned, %d ok", r.Dir, r.Scanned, r.OK)
	if r.Foreign > 0 {
		fmt.Fprintf(&b, ", %d foreign-schema (kept)", r.Foreign)
	}
	fmt.Fprintf(&b, ", %d corrupt, %d orphan(s)", len(r.Corrupt), len(r.Orphans))
	for _, f := range r.Corrupt {
		fmt.Fprintf(&b, "\n  corrupt: %s (%s)", f.Path, f.Reason)
	}
	for _, f := range r.Orphans {
		fmt.Fprintf(&b, "\n  orphan:  %s (%s)", f.Path, f.Reason)
	}
	for _, p := range r.Pruned {
		fmt.Fprintf(&b, "\n  pruned:  %s", p)
	}
	return b.String()
}

// isTempFile matches the temp names writeAtomic creates for entries and
// the run status (".<key>.tmp-*" / ".status.tmp-*"): after a crash
// between create and rename these linger as orphans.
func isTempFile(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-")
}

// cacheScan is one walk over a cache directory's entry shards, each file
// classified the way a read would judge it. Fsck reports it whole;
// Cache.Entries serves its clean entries and refuses a scan with corrupt
// ones, so the two can never disagree about what is damaged.
type cacheScan struct {
	scanned int     // entry files examined
	clean   []Entry // current-schema entries that verified
	foreign int     // valid entries from other schema versions
	corrupt []Flaw  // unparseable / misfiled / checksum-mismatched entries
	orphans []Flaw  // leftover temp files from interrupted writes
}

// scanCache walks dir, skipping the quarantine dumps and the files at
// the root (the run status, and the journal older versions kept), and
// classifies every entry file.
func scanCache(dir string) (*cacheScan, error) {
	sc := &cacheScan{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && d.Name() == quarantineDirName {
				return filepath.SkipDir // diagnostic dumps, not entries
			}
			return nil
		}
		name := d.Name()
		if isTempFile(name) {
			sc.orphans = append(sc.orphans, Flaw{Path: path, Reason: "interrupted atomic write"})
			return nil
		}
		if filepath.Dir(path) == dir || !strings.HasSuffix(name, ".json") {
			return nil // only entries live in the shards
		}
		sc.scanned++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			sc.corrupt = append(sc.corrupt, Flaw{Path: path, Reason: fmt.Sprintf("unparseable: %v", err)})
			return nil
		}
		if e.Schema != SchemaVersion {
			sc.foreign++
			return nil
		}
		if len(e.Key) < 2 || path != entryPath(dir, e.Key) {
			sc.corrupt = append(sc.corrupt, Flaw{Path: path, Reason: fmt.Sprintf("misfiled: entry key %s", e.Key)})
			return nil
		}
		if !e.Verify() {
			sc.corrupt = append(sc.corrupt, Flaw{Path: path, Reason: "checksum mismatch"})
			return nil
		}
		sc.clean = append(sc.clean, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortFlaws(sc.corrupt)
	sortFlaws(sc.orphans)
	return sc, nil
}

// Fsck scans a cache directory for corruption the way reads would detect
// it — unparseable entries, checksum mismatches, entries filed under the
// wrong key or shard, temp-file orphans — and reports everything found.
// With prune set, corrupt entries and orphans are deleted (they will
// simply re-simulate); valid entries from other schema versions are
// reported but never pruned.
func Fsck(dir string, prune bool) (*FsckReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("campaign: fsck: %w", err)
	}
	sc, err := scanCache(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: fsck: %w", err)
	}
	rep := &FsckReport{Dir: dir, Scanned: sc.scanned, OK: len(sc.clean),
		Foreign: sc.foreign, Corrupt: sc.corrupt, Orphans: sc.orphans}
	if prune {
		for _, list := range [][]Flaw{rep.Corrupt, rep.Orphans} {
			for _, f := range list {
				if err := os.Remove(f.Path); err != nil {
					return rep, fmt.Errorf("campaign: fsck prune: %w", err)
				}
				rep.Pruned = append(rep.Pruned, f.Path)
			}
		}
		sort.Strings(rep.Pruned)
	}
	return rep, nil
}

func sortFlaws(flaws []Flaw) {
	sort.Slice(flaws, func(i, j int) bool { return flaws[i].Path < flaws[j].Path })
}
