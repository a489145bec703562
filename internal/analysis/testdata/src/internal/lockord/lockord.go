// Package lockord is the lockorder analyzer's golden input.
package lockord

import "sync"

// A and B form a lock-order cycle through AB and BA.
type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

// AB takes A.mu then B.mu.
func AB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock-order cycle: lockord.A.mu -> lockord.B.mu -> lockord.A.mu`
	b.mu.Unlock()
}

// BA takes B.mu then A.mu — the opposite order.
func BA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}

// lockB is a helper that acquires B.mu; edges must flow through calls.
func lockB(b *B) {
	b.mu.Lock()
	b.mu.Unlock()
}

// ABIndirect records the same A->B edge through the helper summary.
func ABIndirect(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockB(b)
}

// E and F form a cycle through a *Locked method, which starts with its
// receiver's mutex held.
type E struct {
	mu sync.Mutex
	f  *F
}

type F struct{ mu sync.Mutex }

// flushLocked is called with e.mu held, so taking F.mu orders E.mu
// before it.
func (e *E) flushLocked() {
	e.f.mu.Lock() // want `lock-order cycle: lockord.E.mu -> lockord.F.mu -> lockord.E.mu`
	e.f.mu.Unlock()
}

// toucher reaches E.mu through an interface method, so FE's F->E edge
// comes from the callee summaries' interface fan-out.
type toucher interface{ touch() }

func (e *E) touch() {
	e.mu.Lock()
	e.mu.Unlock()
}

// FE takes F.mu, then E.mu through toucher — the opposite order.
func FE(t toucher, f *F) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t.touch()
}

// G.mu is taken on one branch only: after the join it is not held on
// every path, so taking H.mu adds no G->H edge, and HG's opposite order
// closes no cycle.
type G struct{ mu sync.Mutex }

type H struct{ mu sync.Mutex }

// Branch holds G.mu only when lock is set.
func Branch(g *G, h *H, lock bool) {
	if lock {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	h.mu.Lock()
	h.mu.Unlock()
}

// HG takes H.mu then G.mu.
func HG(g *G, h *H) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g.mu.Lock()
	g.mu.Unlock()
}

// A goroutine spawned while I.mu is held starts with nothing held, so its
// J.mu adds no I->J edge, and JI's opposite order closes no cycle.
type I struct{ mu sync.Mutex }

type J struct{ mu sync.Mutex }

func lockJ(j *J) {
	j.mu.Lock()
	j.mu.Unlock()
}

// SpawnHeld spawns, with I.mu held, a function and a literal that take
// J.mu.
func SpawnHeld(i *I, j *J) {
	i.mu.Lock()
	defer i.mu.Unlock()
	go lockJ(j)
	go func() {
		j.mu.Lock()
		j.mu.Unlock()
	}()
}

// JI takes J.mu then I.mu.
func JI(i *I, j *J) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i.mu.Lock()
	i.mu.Unlock()
}
