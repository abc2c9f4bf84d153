package secmem

import (
	"bytes"
	"crypto/sha256"
	"sync"

	"authpoint/internal/mem"
)

// The sealed-page table. A protected line holding plaintext p at counter c
// has ciphertext pad(addr, c) ⊕ p and flat MAC HMAC(addr‖c‖ct). Both depend
// only on the line address, the counter, the plaintext and the crypto
// geometry (keys, line and MAC sizes, whether the MAC covers the counter);
// not on the line's leaf index, the other ranges of the layout, or the
// machine. FinishProtection seals a line at 1 + the number of image
// segments touching it, so every whole protected page whose lines all
// share one counter — the zero pages no image touches, zero-filled data
// arrays, and the pages of a program's data image — seals to the same
// ciphertext and MACs in every machine that loads the same bytes there.
// The table keeps such pages process-wide, keyed by geometry, page address,
// counter and a SHA-256 of the plaintext page (all-zero pages, the common
// case, skip the hash), and FinishProtection installs their ciphertext into
// each machine's external memory as shared copy-on-write pages instead of
// re-running AES and HMAC for every line of every machine.
//
// Entries are filled on first use by the controller that needs them,
// through the same SealInto + lineMac computation every other seal uses,
// and are immutable afterwards. They hold the ciphertext and MACs only:
// the plaintext stays with each machine's image segments, where a
// controller's Fetch finds it again (see knownLine). The table grows with
// the set of distinct protected pages ever sealed — the stack and probe
// windows, zero data pages, and the whole data pages of the programs built
// — times the few geometries in use, never with the number of machines
// built from those programs. The rest of a build, the pages sealed line by
// line and the MAC tree, is kept by the sealed-layout cache (layout.go),
// which holds at most layoutCacheCap layouts.

// sealGeom is everything a sealed line depends on besides its address,
// counter and plaintext.
type sealGeom struct {
	encKey, macKey   string
	lineB, macB      int
	macCoversCounter bool
}

// sealTable holds the sealed pages of one geometry.
type sealTable struct {
	mu    sync.Mutex
	pages map[pageKey]*sealedPage
}

// pageKey names one sealed page: its address, the counter its lines are
// sealed at, and the SHA-256 of its plaintext (zero for a page of zeroes).
type pageKey struct {
	pg, ctr uint64
	sum     [sha256.Size]byte
}

// sealedPage is one page of sealed lines: the counter they share, the
// ciphertext, and the flat MAC of each line in address order. Read-only
// once filled.
type sealedPage struct {
	fill sync.Once
	ctr  uint64
	ct   []byte // mem.PageSize bytes
	macs []byte // MacB bytes per line
}

var sealTables struct {
	mu     sync.Mutex
	byGeom map[sealGeom]*sealTable
}

// geom returns c's seal geometry.
func (c *Controller) geom() sealGeom {
	return sealGeom{
		encKey: string(c.encKey), macKey: string(c.macKey),
		lineB: c.cfg.LineB, macB: c.cfg.MacB, macCoversCounter: c.cfg.MacCoversCounter,
	}
}

// sealTableFor returns the table for geometry g, or nil when lines do not
// tile pages (a line larger than a page), in which case every line is
// sealed individually.
func sealTableFor(g sealGeom) *sealTable {
	if g.lineB > mem.PageSize {
		return nil
	}
	sealTables.mu.Lock()
	defer sealTables.mu.Unlock()
	if sealTables.byGeom == nil {
		sealTables.byGeom = map[sealGeom]*sealTable{}
	}
	t := sealTables.byGeom[g]
	if t == nil {
		t = &sealTable{pages: map[pageKey]*sealedPage{}}
		sealTables.byGeom[g] = t
	}
	return t
}

// page returns the page at the page-aligned address pg sealed at counter
// ctr with plaintext plain (nil for zeroes), sealing it with c's engines if
// no controller has yet. Concurrent callers for the same page wait for the
// one fill.
func (t *sealTable) page(c *Controller, pg, ctr uint64, plain []byte) *sealedPage {
	k := pageKey{pg: pg, ctr: ctr}
	if plain != nil {
		k.sum = sha256.Sum256(plain)
	}
	t.mu.Lock()
	sp := t.pages[k]
	if sp == nil {
		sp = &sealedPage{ctr: ctr}
		t.pages[k] = sp
	}
	t.mu.Unlock()
	sp.fill.Do(func() { sp.ct, sp.macs = c.sealPage(pg, ctr, plain) })
	return sp
}

// sealPage seals every line of the page at pg at counter ctr, with the
// plaintext page plain, or zeroes when plain is nil.
func (c *Controller) sealPage(pg, ctr uint64, plain []byte) (ct, macs []byte) {
	lb, mb := c.cfg.LineB, c.cfg.MacB
	ct, mapped := newTablePage()
	macs = make([]byte, mem.PageSize/lb*mb)
	zero := make([]byte, lb)
	for i := 0; i < mem.PageSize/lb; i++ {
		a, line, pt := pg+uint64(i*lb), ct[i*lb:(i+1)*lb], zero
		if plain != nil {
			pt = plain[i*lb : (i+1)*lb]
		}
		if err := c.enc.SealInto(line, a, ctr, pt); err != nil {
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

// knownLine reports whether the protected line at a (leaf idx, in range r)
// is still exactly as the table sealed it: its page is still the table
// page this controller installed (no write has copied it), its counter is
// the page's, and, where a flat MAC is verified, its stored MAC is the
// table's. Such a line decrypts to its image plaintext and verifies,
// because both are pure functions of inputs that equal the sealed ones.
func (c *Controller) knownLine(a uint64, idx int, r *addrRange) bool {
	sp := r.sharedAt(a)
	if sp == nil {
		return false
	}
	if b := c.mem.SharedPage(a); len(b) == 0 || &b[0] != &sp.ct[0] {
		return false
	}
	if c.enc.Counter(a) != sp.ctr {
		return false
	}
	if c.cfg.Authenticate && c.tree == nil {
		mb := c.cfg.MacB
		i := int(a&(mem.PageSize-1)) / c.cfg.LineB
		c.mem.ReadInto(c.macBuf, c.macAddr(idx))
		return bytes.Equal(c.macBuf, sp.macs[i*mb:(i+1)*mb])
	}
	return true
}
