package secmem

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"authpoint/internal/cryptoengine/ctr"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/mem"
)

// The sealed-layout cache. What FinishProtection leaves behind is a pure
// function of the seal geometry, UseTree, the protected ranges in Protect
// order and the image. Whole pages whose lines share one counter already
// come from the sealed-page table (zeroseal.go); the rest — the pages the
// protected ranges cover in part or whose lines differ in counter, sealed
// line by line, their counters and flat MACs, and in tree mode the MAC tree
// over the whole layout — is what a campaign pays again for every machine
// it builds from one program. So the first build of a layout records that
// rest here, and every later build of the same layout installs it instead
// of sealing: the recorded pages as shared, copy-on-write pages, the
// counters and the MACs of the lines sealed one by one replayed, and a
// clone of the tree, which tamper and write-back mutate.
//
// The key is the geometry, UseTree, the ranges, the table entry of every
// table page, and the image bytes on the other pages. The table entries
// stand for the plaintext of the pages they cover: the table found them by
// the page digests it computes on every build anyway, so the key hashes
// nothing again, and an entry copies only the image bytes of the pages
// sealed one by one. Table pages and their MACs are installed from the
// table on every build, hit or miss, so no entry holds them: the flat MAC
// store takes an eighth of the protected bytes, and a probe window or a
// large data image would otherwise make it most of an entry.
//
// The cache holds at most layoutCacheCap entries and evicts the oldest
// first, which suits campaigns that build every cell of one program before
// the next program; evicted entries are ordinary heap objects, collected
// once no machine shares their pages. Only a controller whose memory holds
// no pages when it seals uses the cache: then every page its memory owns
// afterwards is one sealing wrote.

// layoutCacheCap bounds the sealed-layout cache. A cross campaign needs one
// entry per program and tree mode in flight, a paper sweep one per kernel.
// An entry of a generated program holds its partial text and data pages
// and, in tree mode, a tree of about a thousand leaves: 13 KiB flat, 24 KiB
// with the tree.
const layoutCacheCap = 16

// sealedLayout is one cache entry: its key, and once ready is closed, what
// sealing left (failed when the sealing it waited for returned an error).
type sealedLayout struct {
	geom    sealGeom
	useTree bool
	ranges  [][2]uint64     // start, end of each protected range in Protect order
	shared  [][]*sealedPage // each range's table pages
	rest    []Segment       // the image bytes on the other pages, copied

	ready  chan struct{}
	failed bool
	pages  []mem.Page    // the pages sealing wrote but the MAC store, frozen
	macs   []byte        // flat MACs of the lines sealed one by one, in leaf order
	ctrs   ctr.Counters  // the counter table
	tree   *mactree.Tree // tree mode: the built tree, never handed out
}

var layouts struct {
	mu      sync.Mutex
	entries []*sealedLayout // oldest first
}

// bypassLayouts makes every build seal without the sealed-layout cache; the
// identity tests set it to build the reference machines.
var bypassLayouts atomic.Bool

// sealLayout gives every protected line its sealed ciphertext, counter and
// MAC or tree leaf: table pages from the sealed-page table, the rest from
// the sealed-layout cache when an earlier build sealed the same layout, or
// else sealed line by line and recorded there.
func (c *Controller) sealLayout(image []Segment) error {
	cached := c.mem.Pages() == 0 && !bypassLayouts.Load()
	g := c.geom()
	c.findTablePages(image, sealTableFor(g))
	c.installTablePages()
	if !cached {
		return c.sealLines(image)
	}
	l, hit := layoutFor(g, c, c.residue(image))
	if hit {
		c.installLayout(l)
		return nil
	}
	if l == nil {
		return c.sealLines(image)
	}
	sealed := false
	defer func() { l.record(c, sealed) }()
	if err := c.sealLines(image); err != nil {
		return err
	}
	sealed = true
	return nil
}

// residue returns the image bytes on the pages sealed one by one: each
// segment cut at page boundaries, in segment order, less its pieces on
// table pages. The pieces alias the image.
func (c *Controller) residue(image []Segment) []Segment {
	var out []Segment
	for _, s := range image {
		for a := s.Addr; a < s.end(); {
			end := min(a&^(mem.PageSize-1)+mem.PageSize, s.end())
			if !c.onTablePage(a) {
				out = append(out, Segment{Addr: a, Data: s.Data[a-s.Addr : end-s.Addr]})
			}
			a = end
		}
	}
	return out
}

// onTablePage reports whether the protected address a lies on a page
// installed from the sealed-page table.
func (c *Controller) onTablePage(a uint64) bool {
	for i := range c.protected {
		if r := &c.protected[i]; a >= r.start && a < r.end {
			return r.sharedAt(a) != nil
		}
	}
	return false
}

// matches reports whether l is the layout c seals, with rest its residue.
func (l *sealedLayout) matches(g sealGeom, c *Controller, rest []Segment) bool {
	if l.geom != g || l.useTree != c.cfg.UseTree || len(l.ranges) != len(c.protected) || len(l.rest) != len(rest) {
		return false
	}
	for i, r := range c.protected {
		if l.ranges[i] != [2]uint64{r.start, r.end} || !slices.Equal(l.shared[i], r.shared) {
			return false
		}
	}
	for i, s := range rest {
		if l.rest[i].Addr != s.Addr || !bytes.Equal(l.rest[i].Data, s.Data) {
			return false
		}
	}
	return true
}

// layoutFor looks up the layout c seals, with rest its residue. On a hit it
// returns the filled entry, having waited for a concurrent fill. On a miss
// it returns a new entry, already in the cache, that c must fill by
// sealing; nil when an earlier fill of this layout failed, so c seals
// without the cache.
func layoutFor(g sealGeom, c *Controller, rest []Segment) (l *sealedLayout, hit bool) {
	layouts.mu.Lock()
	for _, e := range layouts.entries {
		if e.matches(g, c, rest) {
			layouts.mu.Unlock()
			<-e.ready
			if e.failed {
				return nil, false
			}
			return e, true
		}
	}
	l = &sealedLayout{geom: g, useTree: c.cfg.UseTree, ready: make(chan struct{})}
	for _, r := range c.protected {
		l.ranges = append(l.ranges, [2]uint64{r.start, r.end})
		l.shared = append(l.shared, r.shared)
	}
	for _, s := range rest {
		l.rest = append(l.rest, Segment{Addr: s.Addr, Data: bytes.Clone(s.Data)})
	}
	layouts.entries = append(layouts.entries, l)
	if len(layouts.entries) > layoutCacheCap {
		layouts.entries = slices.Delete(layouts.entries, 0, 1)
	}
	layouts.mu.Unlock()
	return l, false
}

// record fills l from c, which has just sealed it (or failed to, when
// sealed is false), and releases the builds waiting for it. c's memory
// keeps the recorded pages as shared pages from now on.
func (l *sealedLayout) record(c *Controller, sealed bool) {
	defer close(l.ready)
	if !sealed {
		l.failed = true
		return
	}
	for _, p := range c.mem.Freeze() {
		if p.Addr < c.macBase || p.Addr >= c.macAddr(c.nLeaves) {
			l.pages = append(l.pages, p)
		}
	}
	if !c.cfg.UseTree {
		c.eachPage(func(r *addrRange, pg, lo, hi uint64) {
			if r.sharedAt(pg) == nil {
				l.macs = append(l.macs, c.mem.Read(c.macSpan(r, lo, hi))...)
			}
		})
	}
	l.ctrs = c.enc.Counters()
	if c.tree != nil {
		l.tree = c.tree.Clone()
	}
}

// installLayout gives c, whose table pages are installed, the rest of the
// sealed state l recorded.
func (c *Controller) installLayout(l *sealedLayout) {
	for _, p := range l.pages {
		c.mem.SharePage(p.Addr, p.B)
	}
	c.enc.SetCounters(l.ctrs)
	if !c.cfg.UseTree {
		macs := l.macs
		c.eachPage(func(r *addrRange, pg, lo, hi uint64) {
			if r.sharedAt(pg) == nil {
				at, n := c.macSpan(r, lo, hi)
				c.mem.Write(at, macs[:n])
				macs = macs[n:]
			}
		})
	}
	if l.tree != nil {
		c.tree = l.tree.Clone()
	}
}
