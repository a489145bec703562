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

	ManifestOK      bool // journal present and header readable
	ManifestRecords int
	ManifestDropped int // torn journal lines

	// Deep cross-check results (Fsck with Deep set): the journal and the
	// entry store describe the same campaign from two sides, and a crash
	// between cache.Put and Manifest.Append (or a lost Put) lets them
	// drift. Both directions are recoverable — the engine re-simulates a
	// missing entry and re-journals an unjournaled one — but drift means
	// resume estimates and `campaign status` counts lie, so -deep makes
	// it visible.
	Deep        bool
	MissingData []Flaw // done journal rows whose cache entry is absent/unusable
	Unjournaled []Flaw // verified cache entries with no journal row

	// GCOrphans marks an interrupted eviction: a gc-intent marker is
	// present (gc crashed between publishing its victim list and deleting
	// the marker), and these are the marker plus any listed entries still
	// on disk. Prune finishes the eviction the dead gc started.
	GCOrphans []Flaw

	Pruned []string // removed by -prune
}

// Clean reports whether the scan found nothing to repair. A missing or
// rebuilt manifest is not dirt — the engine reconstructs it — but corrupt
// or orphaned entry files are, and so is journal/store drift found by a
// deep scan.
func (r *FsckReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Orphans) == 0 &&
		len(r.MissingData) == 0 && len(r.Unjournaled) == 0 &&
		len(r.GCOrphans) == 0
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
	for _, f := range r.Unjournaled {
		fmt.Fprintf(&b, "\n  unjournaled: %s (%s)", f.Path, f.Reason)
	}
	for _, f := range r.GCOrphans {
		fmt.Fprintf(&b, "\n  gc-orphan: %s (%s)", f.Path, f.Reason)
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
	// Prune deletes corrupt entries and orphans, removes unjournaled
	// entries, and resets done journal rows with no backing entry to
	// pending — every repair makes the affected cell simply re-simulate.
	Prune bool
	// Deep cross-checks manifest journal rows against the entry store in
	// both directions (requires a readable manifest; silently skipped
	// otherwise, since a rebuilt manifest has nothing to disagree with).
	Deep bool
}

// Fsck scans a cache directory for corruption the way reads would detect
// it — unparseable entries, checksum mismatches, entries filed under the
// wrong key or shard, temp-file orphans, torn manifest lines — and
// reports everything found. With prune set, corrupt entries and orphans
// are deleted (they will simply re-simulate); valid entries from other
// schema versions are reported but never pruned.
func Fsck(dir string, prune bool) (*FsckReport, error) {
	return FsckWith(dir, FsckOptions{Prune: prune})
}

// FsckWith is Fsck with the full option set (see FsckOptions).
func FsckWith(dir string, opts FsckOptions) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir, Deep: opts.Deep}
	verified := make(map[string]string) // entry key -> path, current schema only
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("campaign: fsck: %w", err)
	}
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
			rep.Orphans = append(rep.Orphans, Flaw{Path: path, Reason: "interrupted atomic write"})
			return nil
		}
		if filepath.Dir(path) == dir {
			return nil // manifest files live at the root, checked below
		}
		if !strings.HasSuffix(name, ".json") {
			return nil
		}
		rep.Scanned++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			rep.Corrupt = append(rep.Corrupt, Flaw{Path: path, Reason: fmt.Sprintf("unparseable: %v", err)})
			return nil
		}
		if e.Schema != SchemaVersion {
			rep.Foreign++
			return nil
		}
		if len(e.Key) < 2 || name != e.Key+".json" || filepath.Base(filepath.Dir(path)) != e.Key[:2] {
			rep.Corrupt = append(rep.Corrupt, Flaw{Path: path, Reason: fmt.Sprintf("misfiled: entry key %s", e.Key)})
			return nil
		}
		if !e.Verify() {
			rep.Corrupt = append(rep.Corrupt, Flaw{Path: path, Reason: "checksum mismatch"})
			return nil
		}
		rep.OK++
		verified[e.Key] = path
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: fsck: %w", err)
	}
	sortFlaws(rep.Corrupt)
	sortFlaws(rep.Orphans)

	m, manifestOK := LoadManifest(dir)
	if manifestOK {
		rep.ManifestOK = true
		rep.ManifestRecords = len(m.Jobs)
		rep.ManifestDropped = m.Dropped()
	}

	// An eviction marker means a gc died between publishing its victim
	// list and retiring the marker. The marker plus every listed entry
	// still on disk are the gc-race orphans; prune finishes the eviction.
	var gcVictimKeys []string // listed keys whose entry survives, for prune
	if data, err := os.ReadFile(GCIntentPath(dir)); err == nil {
		var intent gcIntent
		if err := json.Unmarshal(data, &intent); err != nil {
			rep.GCOrphans = append(rep.GCOrphans, Flaw{
				Path:   GCIntentPath(dir),
				Reason: fmt.Sprintf("unparseable gc intent marker: %v", err),
			})
		} else {
			rep.GCOrphans = append(rep.GCOrphans, Flaw{
				Path:   GCIntentPath(dir),
				Reason: fmt.Sprintf("interrupted gc (%d cell(s) marked for eviction)", len(intent.Keys)),
			})
			for _, key := range intent.Keys {
				if len(key) < 2 {
					continue
				}
				path := filepath.Join(dir, key[:2], key+".json")
				if _, err := os.Stat(path); err == nil {
					rep.GCOrphans = append(rep.GCOrphans, Flaw{
						Path:   path,
						Reason: "marked for eviction by an interrupted gc",
					})
					gcVictimKeys = append(gcVictimKeys, key)
				}
			}
		}
		sortFlaws(rep.GCOrphans[1:]) // keep the marker's own flaw first
	}

	var missingKeys []string // done rows to reset on prune
	if opts.Deep && manifestOK {
		for _, key := range sortedKeys(m.Jobs) {
			rec := m.Jobs[key]
			if rec.Status != StatusDone {
				continue
			}
			if _, ok := verified[key]; !ok {
				rep.MissingData = append(rep.MissingData, Flaw{
					Path:   key,
					Reason: fmt.Sprintf("journal says %s/%s is done but no verified cache entry backs it", rec.Workload, rec.Policy),
				})
				missingKeys = append(missingKeys, key)
			}
		}
		for _, key := range sortedKeys(verified) {
			if _, ok := m.Jobs[key]; !ok {
				rep.Unjournaled = append(rep.Unjournaled, Flaw{
					Path:   verified[key],
					Reason: fmt.Sprintf("cache entry %s has no journal row", key),
				})
			}
		}
		sortFlaws(rep.MissingData)
		sortFlaws(rep.Unjournaled)
	}

	if opts.Prune {
		// GCOrphans last: the marker (its first flaw) must outlive the
		// listed entries, so a prune interrupted mid-repair is itself
		// resumable the same way.
		for _, list := range [][]Flaw{rep.Corrupt, rep.Orphans, rep.Unjournaled} {
			for _, f := range list {
				if err := os.Remove(f.Path); err != nil {
					return rep, fmt.Errorf("campaign: fsck prune: %w", err)
				}
				rep.Pruned = append(rep.Pruned, f.Path)
			}
		}
		for i := len(rep.GCOrphans) - 1; i >= 0; i-- {
			f := rep.GCOrphans[i]
			if err := os.Remove(f.Path); err != nil && !os.IsNotExist(err) {
				return rep, fmt.Errorf("campaign: fsck prune: %w", err)
			}
			rep.Pruned = append(rep.Pruned, f.Path)
		}
		demote := missingKeys
		if manifestOK {
			// Evicted cells' done rows lie the same way missing-data rows
			// do; demote them alongside.
			for _, key := range gcVictimKeys {
				if rec, ok := m.Jobs[key]; ok && rec.Status == StatusDone {
					demote = append(demote, key)
				}
			}
		}
		if len(demote) > 0 {
			// A done row with no backing entry lies to resume estimates;
			// demote it to pending so the cell honestly re-simulates.
			for _, key := range demote {
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

// sortedKeys returns a map's keys in sorted order, for deterministic
// flaw listings.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortFlaws(flaws []Flaw) {
	sort.Slice(flaws, func(i, j int) bool { return flaws[i].Path < flaws[j].Path })
}
