package analysis

import "go/ast"

// This file is the solver half of simlint's dataflow engine: a generic
// forward worklist fixpoint solver over the CFG in cfg.go. Analyzers
// describe their lattice as a dataflow[F] value — bottom, entry fact,
// join, equality, and a per-node transfer function — and get back the
// fact holding at the start of every block. Per-node facts are recovered
// by replaying Transfer over a block's nodes.
//
// Transfer and Join must be pure: they return fresh fact values and
// never mutate their inputs, because the solver retains and compares
// facts across iterations.

// dataflow describes one dataflow problem over facts of type F.
type dataflow[F any] struct {
	// Bottom is the identity of Join: the fact for not-yet-reached code.
	Bottom func() F
	// Entry is the fact holding at the function entry.
	Entry func() F
	// Join combines the facts of two incoming paths.
	Join func(a, b F) F
	// Equal reports fact equality; the fixpoint terminates when no
	// block's boundary fact changes.
	Equal func(a, b F) bool
	// Transfer applies one CFG node's effect.
	Transfer func(n ast.Node, f F) F
}

// forward solves the problem in execution order with a worklist and
// returns the fact at the start of every block.
func (d dataflow[F]) forward(g *cfg) map[*block]F {
	in := make(map[*block]F, len(g.blocks))
	out := make(map[*block]F, len(g.blocks))
	for _, b := range g.blocks {
		in[b] = d.Bottom()
		out[b] = d.Bottom()
	}
	in[g.entry] = d.Entry()

	// Worklist seeded with every block in index order; indices are
	// assigned in construction order, so the iteration sequence — and
	// with it every intermediate fact — is deterministic.
	work := make([]*block, len(g.blocks))
	copy(work, g.blocks)
	queued := make([]bool, len(g.blocks))
	for i := range queued {
		queued[i] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.index] = false

		f := in[b]
		if b != g.entry {
			f = d.Bottom()
			for _, p := range b.preds {
				f = d.Join(f, out[p])
			}
			in[b] = f
		}
		for _, n := range b.nodes {
			f = d.Transfer(n, f)
		}
		if d.Equal(f, out[b]) {
			continue
		}
		out[b] = f
		for _, s := range b.succs {
			if !queued[s.index] {
				queued[s.index] = true
				work = append(work, s)
			}
		}
	}
	return in
}
