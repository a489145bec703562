// Package ceaser implements CEASER-style randomized cache indexing
// (Qureshi, MICRO 2018): the set index is computed from an *encrypted* line
// address, so spatially related lines map to unrelated sets and an eviction
// leaks no information about the address of the install that caused it.
//
// CleanupSpec (Section 3.2) uses this for the shared L2 (and directory),
// which is what makes L2 evictions benign and lets the Undo approach skip
// buffering or restoring L2 evictions entirely. The paper charges 2 cycles
// of address-encryption latency per L2 access; that figure is carried here
// as ExtraLatency and added by the memory system.
//
// The cipher is a 4-round Feistel network over the 40-bit line address.
// A Feistel network is a bijection by construction for any round function,
// which is the property CEASER relies on (every line still has exactly one
// set). Decrypt exists to let tests verify bijectivity.
package ceaser

import (
	"repro/internal/arch"
	"repro/internal/xrand"
)

// EncryptLatency is the extra access latency charged for address
// encryption, per the paper's Section 3.2 / Table 4 (2 cycles).
const EncryptLatency arch.Cycle = 2

const (
	halfBits = arch.LineAddrBits / 2 // 20
	halfMask = (1 << halfBits) - 1
	rounds   = 4
)

// Indexer is a randomized set indexer implementing cache.Indexer. It also
// carries the dynamic-remap state (see remap.go): a next key and the set
// pointer SPtr that walks the cache during a remap epoch.
type Indexer struct {
	sets      uint64
	keys      [rounds]uint64
	nextKeys  [rounds]uint64
	sptr      int
	remapping bool

	// Remaps counts finished gradual remap epochs.
	Remaps uint64
}

// New builds an indexer for the given number of sets, keyed from seed.
func New(sets int, seed uint64) *Indexer {
	ix := &Indexer{sets: uint64(sets)}
	r := xrand.New(seed ^ 0xCEA5E4)
	for i := range ix.keys {
		ix.keys[i] = r.Uint64()
	}
	return ix
}

// round is the Feistel round function: a keyed 64-bit mix truncated to a
// half-width value. It need not be invertible.
func round(half, key uint64) uint64 {
	return xrand.Hash64(half^key) & halfMask
}

// Encrypt maps a line address to its encrypted image under the current
// key, a bijection over the low arch.LineAddrBits bits. Bits above
// LineAddrBits are folded into the low bits first so the full address
// still influences the index.
func (ix *Indexer) Encrypt(l arch.LineAddr) uint64 {
	return ix.encryptWith(ix.keys, l)
}

// Decrypt inverts Encrypt (over the folded 40-bit domain); it exists so
// tests can prove the mapping is a bijection.
func (ix *Indexer) Decrypt(e uint64) uint64 {
	left, right := e>>halfBits, e&halfMask
	for i := rounds - 1; i >= 0; i-- {
		left, right = right^round(left, ix.keys[i]), left
	}
	return left<<halfBits | right
}

// SetIndex implements cache.Indexer. During a remap epoch, lines whose
// current-key set has already been relocated (set < SPtr) index under the
// next key.
func (ix *Indexer) SetIndex(l arch.LineAddr) int {
	s := int(ix.Encrypt(l) % ix.sets)
	if ix.remapping && s < ix.sptr {
		return ix.NextIndex(l)
	}
	return s
}

// Sets implements cache.Indexer.
func (ix *Indexer) Sets() int { return int(ix.sets) }

// ExtraLatency is the encryption latency the memory system adds to every
// L2 access.
func (ix *Indexer) ExtraLatency() arch.Cycle { return EncryptLatency }
