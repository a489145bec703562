package analysis

// hotPathRoots is the committed list of per-cycle entry points the
// hotalloc analyzer treats as roots, in addition to functions annotated
// with a //simlint:hot directive. Each entry is "<package-rel>.<func>"
// or "<package-rel>.<Recv>.<method>" — the key hotRootKey renders.
//
// Entries that do not resolve in the analyzed module are ignored, so the
// golden testdata mini-modules declare their roots purely via directives.
//
// Everything the simulator executes once per simulated cycle hangs off
// Machine.Step: the memory hierarchy tick (cache/memsys/dram/coherence),
// wake/completion processing, commit/issue/dispatch/fetch, and the
// metrics sampler's disabled path. Adding a root here (or growing what an
// existing root reaches) widens the allocation budget CI enforces via
// HOTPATH_BUDGET.json — re-record it with `simlint -hotreport` and
// justify the growth in review.
//
// Machine.onLoadData is a root of its own because the call graph does not
// follow func values: memsys reaches it only through the Txn's onDone
// field (`t.onDone(t)`), which holds the method value m.onLoad bound once
// in cpu.New. It runs on every load completion.
var hotPathRoots = []string{
	"internal/cpu.Machine.Step",
	"internal/cpu.Machine.onLoadData",
}
