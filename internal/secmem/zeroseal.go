package secmem

import (
	"sync"

	"authpoint/internal/mem"
)

// The sealed-zero table. A protected line holding plaintext zeroes at
// counter c has ciphertext pad(addr, c) and flat MAC HMAC(addr‖c‖ct). Both
// depend only on the line address, the counter and the crypto geometry
// (keys, line and MAC sizes, whether the MAC covers the counter); not on
// the line's leaf index, the other ranges of the layout, or the program.
// Every line of a fresh layout that no image touches is zero at counter 1,
// and a zero-filled data array the image wrote once is zero at counter 2.
// So the table keeps sealed zero pages per (geometry, counter, page),
// process-wide, and FinishProtection installs their ciphertext into each
// machine's external memory as shared copy-on-write pages instead of
// re-running AES and HMAC for every line of every machine.
//
// Entries are filled on first use by the controller that needs them,
// through the same SealInto + lineMac computation every other seal uses,
// and are immutable afterwards. The table grows only with the set of
// protected zero pages ever sealed — the stack and probe windows and the
// zero data pages, all at fixed addresses — times the few geometries in
// use, never with the number of programs or machines built.

// sealGeom is everything a sealed zero line depends on besides its address.
type sealGeom struct {
	encKey, macKey   string
	lineB, macB      int
	macCoversCounter bool
}

// zeroTable holds the sealed-zero pages of one geometry.
type zeroTable struct {
	mu    sync.Mutex
	pages map[zeroKey]*zeroPage
}

// zeroKey names one sealed-zero page: its address and the counter its
// lines are sealed at (1 for lines no image touched, 2 for zero lines a
// program image wrote once).
type zeroKey struct{ pg, ctr uint64 }

// zeroPage is one page of sealed zero lines: the ciphertext, and the flat
// MAC of each line in address order. Read-only once filled.
type zeroPage struct {
	fill sync.Once
	ct   []byte // mem.PageSize bytes
	macs []byte // MacB bytes per line
}

var zeroTables struct {
	mu     sync.Mutex
	byGeom map[sealGeom]*zeroTable
}

// zeroTableFor returns the table for c's geometry, or nil when lines do not
// tile pages (a line larger than a page), in which case every line is
// sealed individually.
func zeroTableFor(c *Controller) *zeroTable {
	if c.cfg.LineB > mem.PageSize {
		return nil
	}
	g := sealGeom{
		encKey: string(c.encKey), macKey: string(c.macKey),
		lineB: c.cfg.LineB, macB: c.cfg.MacB, macCoversCounter: c.cfg.MacCoversCounter,
	}
	zeroTables.mu.Lock()
	defer zeroTables.mu.Unlock()
	if zeroTables.byGeom == nil {
		zeroTables.byGeom = map[sealGeom]*zeroTable{}
	}
	t := zeroTables.byGeom[g]
	if t == nil {
		t = &zeroTable{pages: map[zeroKey]*zeroPage{}}
		zeroTables.byGeom[g] = t
	}
	return t
}

// page returns the page at the page-aligned address pg sealed zero at
// counter ctr, sealing it with c's engines if no controller has yet.
// Concurrent callers for the same page wait for the one fill.
func (t *zeroTable) page(c *Controller, ctr, pg uint64) *zeroPage {
	k := zeroKey{pg, ctr}
	t.mu.Lock()
	zp := t.pages[k]
	if zp == nil {
		zp = &zeroPage{}
		t.pages[k] = zp
	}
	t.mu.Unlock()
	zp.fill.Do(func() { zp.ct, zp.macs = c.sealZeroPage(ctr, pg) })
	return zp
}

// sealZeroPage seals every line of the page at pg as plaintext zeroes at
// counter ctr.
func (c *Controller) sealZeroPage(ctr, pg uint64) (ct, macs []byte) {
	lb, mb := c.cfg.LineB, c.cfg.MacB
	ct, mapped := newTablePage()
	macs = make([]byte, mem.PageSize/lb*mb)
	zero := make([]byte, lb)
	for i := 0; i < mem.PageSize/lb; i++ {
		a, line := pg+uint64(i*lb), ct[i*lb:(i+1)*lb]
		if err := c.enc.SealInto(line, a, ctr, zero); err != nil {
			panic(err) // unreachable: lines are lineB bytes by construction
		}
		mac := c.lineMac(a, ctr, line)
		copy(macs[i*mb:], mac[:mb])
		c.sealWork++
	}
	if mapped {
		freezeTablePage(ct)
	}
	return ct, macs
}
