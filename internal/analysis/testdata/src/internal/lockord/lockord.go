// Package lockord is the lockorder analyzer's golden input.
package lockord

import "sync"

// Counter's n is guarded: Add writes it under mu.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Add establishes the guard relation by writing n with mu held.
func (c *Counter) Add() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Bad reads the guarded field with the guard provably not held.
func (c *Counter) Bad() int {
	return c.n // want `Counter.n is guarded by lockord.Counter.mu`
}

// readLocked follows the *Locked convention: mu is assumed held at entry.
func (c *Counter) readLocked() int {
	return c.n
}

// Snapshot uses the convention helper correctly.
func (c *Counter) Snapshot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readLocked()
}

// Cond may or may not hold the lock at the read: Maybe is not provable,
// so no finding.
func (c *Counter) Cond(locked bool) int {
	if locked {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.n
}

// Double acquires the same mutex class twice on one path.
func (c *Counter) Double() {
	c.mu.Lock()
	c.mu.Lock() // want `acquiring lockord.Counter.mu while it is already held`
	c.mu.Unlock()
	c.mu.Unlock()
}

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

// addTwice forwards to Add; the reacquisition summary must be transitive.
func addTwice(c *Counter) {
	c.Add()
}

// Reenter calls, with the lock held, a helper whose summary says it
// re-acquires the same class two frames down.
func (c *Counter) Reenter() {
	c.mu.Lock()
	defer c.mu.Unlock()
	addTwice(c) // want `calling addTwice, which may \(transitively\) acquire lockord.Counter.mu while it is already held`
}

// SpawnHeld spawns, with the lock held, a goroutine whose body needs the
// same lock: it cannot run until the spawner releases.
func (c *Counter) SpawnHeld() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() { // want `goroutine spawned while lockord.Counter.mu is held, and the spawned function may \(transitively\) acquire lockord.Counter.mu`
		c.Add()
	}()
	c.n++
}

// SpawnFree spawns the same goroutine with no lock held: no finding, and
// the literal's own analysis starts from a fresh entry state.
func (c *Counter) SpawnFree() {
	go func() {
		c.Add()
	}()
}
