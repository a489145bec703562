package campaign

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/stats"
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

	ManifestOK      bool // journal present and header readable
	ManifestRecords int
	ManifestDropped int // torn journal lines

	// Deep check results (Fsck with Deep set): a journal row that
	// says done while no verified entry backs it (a lost Put, or an entry
	// deleted by hand) makes resume estimates and `campaign status` lie,
	// so -deep makes it visible. The other direction is no drift: an
	// entry without a row is what `paperbench -cache`, a manifest-less
	// engine or an older grid leaves in a shared cache, and the next run
	// that needs it serves it and journals it.
	Deep        bool
	MissingData []Flaw // done journal rows whose cache entry is absent/unusable

	Pruned []string // removed by -prune
}

// Clean reports whether the scan found nothing to repair. A missing or
// rebuilt manifest is not dirt — the engine reconstructs it — but corrupt
// or orphaned entry files are, and so is a done row without an entry
// found by a deep scan.
func (r *FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Orphans) == 0 && len(r.MissingData) == 0
}

// String renders the operator-facing summary `campaign fsck` prints.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck %s: %d entr(ies) scanned, %d ok", r.Dir, r.Scanned, r.OK)
	if r.Foreign > 0 {
		fmt.Fprintf(&b, ", %d foreign-schema (kept)", r.Foreign)
	}
	fmt.Fprintf(&b, ", %d corrupt, %d orphan(s)", len(r.Corrupt), len(r.Orphans))
	if r.ManifestOK {
		fmt.Fprintf(&b, "; manifest: %d record(s)", r.ManifestRecords)
		if r.ManifestDropped > 0 {
			fmt.Fprintf(&b, ", %d torn line(s) dropped", r.ManifestDropped)
		}
	} else {
		b.WriteString("; manifest: absent or rebuilt")
	}
	for _, f := range r.Corrupt {
		fmt.Fprintf(&b, "\n  corrupt: %s (%s)", f.Path, f.Reason)
	}
	for _, f := range r.Orphans {
		fmt.Fprintf(&b, "\n  orphan:  %s (%s)", f.Path, f.Reason)
	}
	for _, f := range r.MissingData {
		fmt.Fprintf(&b, "\n  missing: %s (%s)", f.Path, f.Reason)
	}
	for _, p := range r.Pruned {
		fmt.Fprintf(&b, "\n  pruned:  %s", p)
	}
	return b.String()
}

// isTempFile matches the temp names Cache.Put and Manifest.Save create
// (".<key>.tmp-*" / ".manifest.tmp-*"): after a crash between create and
// rename these linger as orphans.
func isTempFile(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-")
}

// FsckOptions selects what a cache scan checks and repairs.
type FsckOptions struct {
	// Prune deletes corrupt entries and orphans, and resets done journal
	// rows with no backing entry to pending — every repair makes the
	// affected cell simply re-simulate.
	Prune bool
	// Deep checks that every done manifest journal row has a verified
	// cache entry (requires a readable manifest; silently skipped
	// otherwise, since a rebuilt manifest has nothing to disagree with).
	Deep bool
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

// scanCache walks dir, skipping the quarantine dumps and the manifest
// files at the root, and classifies every entry file.
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
			return nil // manifest files live at the root
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
// wrong key or shard, temp-file orphans, torn manifest lines — and
// reports everything found. With Prune set, corrupt entries and orphans
// are deleted (they will simply re-simulate); valid entries from other
// schema versions are reported but never pruned. Deep adds the check of
// done journal rows against the entries (see FsckOptions).
func Fsck(dir string, opts FsckOptions) (*FsckReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("campaign: fsck: %w", err)
	}
	sc, err := scanCache(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: fsck: %w", err)
	}
	rep := &FsckReport{Dir: dir, Deep: opts.Deep, Scanned: sc.scanned, OK: len(sc.clean),
		Foreign: sc.foreign, Corrupt: sc.corrupt, Orphans: sc.orphans}
	verified := make(map[string]bool, len(sc.clean))
	for _, e := range sc.clean {
		verified[e.Key] = true
	}

	m, manifestOK := LoadManifest(dir)
	if manifestOK {
		rep.ManifestOK = true
		rep.ManifestRecords = len(m.Jobs)
		rep.ManifestDropped = m.Dropped()
	}

	var missingKeys []string // done rows to reset on prune
	if opts.Deep && manifestOK {
		for _, key := range stats.SortedKeys(m.Jobs) {
			rec := m.Jobs[key]
			if rec.Status != StatusDone {
				continue
			}
			if !verified[key] {
				rep.MissingData = append(rep.MissingData, Flaw{
					Path:   key,
					Reason: fmt.Sprintf("journal says %s/%s is done but no verified cache entry backs it", rec.Workload, rec.Policy),
				})
				missingKeys = append(missingKeys, key)
			}
		}
	}

	if opts.Prune {
		for _, list := range [][]Flaw{rep.Corrupt, rep.Orphans} {
			for _, f := range list {
				if err := os.Remove(f.Path); err != nil {
					return rep, fmt.Errorf("campaign: fsck prune: %w", err)
				}
				rep.Pruned = append(rep.Pruned, f.Path)
			}
		}
		if len(missingKeys) > 0 {
			// A done row with no backing entry lies to resume estimates;
			// demote it to pending so the cell honestly re-simulates.
			for _, key := range missingKeys {
				m.Jobs[key].Status = StatusPending
				m.Jobs[key].Cached = false
				rep.Pruned = append(rep.Pruned, "journal:"+key)
			}
			if err := m.Save(); err != nil {
				return rep, fmt.Errorf("campaign: fsck prune: %w", err)
			}
		}
		sort.Strings(rep.Pruned)
	}
	return rep, nil
}

func sortFlaws(flaws []Flaw) {
	sort.Slice(flaws, func(i, j int) bool { return flaws[i].Path < flaws[j].Path })
}
