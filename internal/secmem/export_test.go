package secmem

import (
	"crypto/sha256"
	"fmt"
)

// Hooks for the external seal-identity and isolation tests.

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

// ZeroTablePages hashes every filled page of the sealed-zero table, keyed
// by geometry, counter and page address. Call it only while no controller
// is sealing.
func ZeroTablePages() map[string][32]byte {
	out := map[string][32]byte{}
	zeroTables.mu.Lock()
	defer zeroTables.mu.Unlock()
	for g, t := range zeroTables.byGeom {
		t.mu.Lock()
		for k, zp := range t.pages {
			key := fmt.Sprintf("%x/%d/%d/%v ctr=%d pg=%#x", sha256.Sum256([]byte(g.encKey+g.macKey)), g.lineB, g.macB, g.macCoversCounter, k.ctr, k.pg)
			out[key] = sha256.Sum256(append(append([]byte(nil), zp.ct...), zp.macs...))
		}
		t.mu.Unlock()
	}
	return out
}
