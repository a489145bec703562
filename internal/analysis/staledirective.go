package analysis

import "sort"

// AnalyzerStaleDirective keeps the suppression inventory honest: a
// //simlint:ordered or //simlint:allow comment that suppressed no finding
// in this run — while every analyzer it names actually ran over its file —
// is dead weight that silently outlives the code it excused, so it is
// itself a finding.
//
// It must be registered last: its Finish phase reads the hit counters the
// other analyzers' suppressed findings increment, so every other analyzer
// — including Finish-phase reporters like lockorder — must have finished
// reporting first.
var AnalyzerStaleDirective = &Analyzer{
	Name:   "staledirective",
	Doc:    "flag //simlint suppression directives that no longer suppress any finding",
	Finish: finishStaleDirectives,
}

func finishStaleDirectives(p *FinishPass) {
	r := p.runner
	var files []string
	for file := range r.directives {
		files = append(files, file)
	}
	sort.Strings(files)

	type dirKey struct {
		file string
		line int
	}
	var keys []dirKey
	for _, file := range files {
		var lines []int
		for line := range r.directives[file] {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			keys = append(keys, dirKey{file: file, line: line})
		}
	}

	for _, k := range keys {
		d := r.directives[k.file][k.line]
		if d.verb == "hot" {
			continue // declares a hotalloc root; it never suppresses, so it cannot go stale
		}
		if d.hits.Load() > 0 {
			continue
		}
		if !r.matchedFiles[d.pos.Filename] {
			continue // the directive's package was not analyzed this run
		}
		ranAll := true
		for _, target := range d.targets() {
			if !r.ran[target] {
				ranAll = false
				break
			}
		}
		if !ranAll {
			continue // can't call it stale if a target analyzer didn't run
		}
		p.Reportf(d.comment.Pos(),
			"stale //simlint:%s directive: every analyzer it targets ran here and reported nothing it would suppress; remove it", d.verb)
	}
}
