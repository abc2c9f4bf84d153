package secmem

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// Hooks for the external seal-identity, isolation and fetch-identity tests.

// SealWork reports how many lines c sealed itself, table fills included.
func SealWork(c *Controller) int { return c.sealWork }

// RemapSlot reports the current remap slot of a protected line.
func RemapSlot(c *Controller, lineAddr uint64) (uint64, bool) {
	idx, ok := c.LeafIndex(lineAddr)
	if !ok || c.remap == nil {
		return 0, false
	}
	return c.remap.slot(lineAddr, idx), true
}

// ForceFullCrypto makes every later Fetch of c decrypt and verify in full:
// c forgets which sealed-page table entries it installed, so no line is
// known to it any more. Memory, counters and MACs stay as they are.
func ForceFullCrypto(c *Controller) {
	for i := range c.protected {
		c.protected[i].shared = nil
	}
}

// SealedTablePages hashes every filled page of the sealed-page table, keyed
// by geometry, counter, page address and, for image pages, the plaintext
// digest ("img=" followed by its first bytes; zero pages have none). Call
// it only while no controller is sealing.
func SealedTablePages() map[string][32]byte {
	out := map[string][32]byte{}
	sealTables.mu.Lock()
	defer sealTables.mu.Unlock()
	for g, t := range sealTables.byGeom {
		t.mu.Lock()
		for k, sp := range t.pages {
			key := fmt.Sprintf("%x/%d/%d/%v ctr=%d pg=%#x", sha256.Sum256([]byte(g.encKey+g.macKey)), g.lineB, g.macB, g.macCoversCounter, k.ctr, k.pg)
			if k.sum != ([sha256.Size]byte{}) {
				key += fmt.Sprintf(" img=%x", k.sum[:8])
			}
			out[key] = sha256.Sum256(append(append([]byte(nil), sp.ct...), sp.macs...))
		}
		t.mu.Unlock()
	}
	return out
}

// BypassLayoutCache makes every build seal without the sealed-layout cache
// until t ends. The flag is process-wide: tests that count cache hits or
// seal work must not run in parallel with t.
func BypassLayoutCache(t testing.TB) {
	bypassLayouts.Store(true)
	t.Cleanup(func() { bypassLayouts.Store(false) })
}

// FlushLayoutCache empties the sealed-layout cache: the next build of every
// layout misses.
func FlushLayoutCache() {
	layouts.mu.Lock()
	defer layouts.mu.Unlock()
	layouts.entries = nil
}

// LayoutCacheLen reports how many layouts the cache holds and its capacity.
func LayoutCacheLen() (n, capacity int) {
	layouts.mu.Lock()
	defer layouts.mu.Unlock()
	return len(layouts.entries), layoutCacheCap
}
