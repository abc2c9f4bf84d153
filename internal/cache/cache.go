// Package cache implements a generic set-associative, write-back cache
// timing model with LRU replacement. It stores tags and line metadata only —
// the functional data lives in the simulator's memory model — and is reused
// for every cache-shaped structure in the machine: L1 I/D, the unified L2,
// the counter cache of the encryption engine, the hash-tree node cache, and
// the address-obfuscation re-map cache.
package cache

import (
	"fmt"
	"math/bits"

	"authpoint/internal/obs"
)

// Line is the metadata of one cache line.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	// Aux carries model-specific per-line state (e.g. "verified" for L2
	// lines whose authentication completed, or the ready-cycle of an
	// in-flight fill).
	Aux uint64
}

// Config describes a cache shape.
type Config struct {
	Name     string
	SizeB    int // total capacity in bytes
	LineB    int // line size in bytes
	Ways     int // associativity (1 = direct-mapped)
	WriteBck bool
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is a set-associative cache model.
type Cache struct {
	cfg  Config
	sets int
	// lineShift = log2(LineB) and setBits = log2(sets): New requires both
	// to be powers of two, so index splits an address with shifts and a
	// mask instead of divisions.
	lineShift uint
	setBits   uint
	// lines and order are flat, pointer-free tables indexed set*Ways+way:
	// lines holds each slot's line, and order[set*Ways:(set+1)*Ways] lists
	// the set's ways from MRU to LRU.
	lines []Line
	order []int32
	stats Stats

	sink  obs.Sink
	track obs.Track
	clock func() uint64
}

// SetObserver attaches an event sink. Access has no cycle argument, so the
// owner supplies a clock closure reading its current cycle; track names this
// cache's trace lane.
func (c *Cache) SetObserver(s obs.Sink, track obs.Track, clock func() uint64) {
	c.sink = s
	c.track = track
	c.clock = clock
}

// New validates cfg and builds the cache.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeB <= 0 || cfg.LineB <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry %+v", cfg.Name, cfg)
	}
	if cfg.SizeB%(cfg.LineB*cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by line*ways %d", cfg.Name, cfg.SizeB, cfg.LineB*cfg.Ways)
	}
	if cfg.LineB&(cfg.LineB-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineB)
	}
	sets := cfg.SizeB / (cfg.LineB * cfg.Ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	c := &Cache{cfg: cfg, sets: sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineB))),
		setBits:   uint(bits.TrailingZeros(uint(sets)))}
	// Two flat allocations without pointers: a machine builds several
	// caches with thousands of sets, and the garbage collector need not
	// scan either table.
	c.lines, c.order = make([]Line, sets*cfg.Ways), make([]int32, sets*cfg.Ways)
	for i := range c.order {
		c.order[i] = int32(i % cfg.Ways)
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineB-1) }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & uint64(c.sets-1)), line >> c.setBits
}

// set returns the lines and the LRU order of one set.
func (c *Cache) set(set int) ([]Line, []int32) {
	lo, hi := set*c.cfg.Ways, (set+1)*c.cfg.Ways
	return c.lines[lo:hi:hi], c.order[lo:hi:hi]
}

// lineAddrOf rebuilds the address of the line with tag in set.
func (c *Cache) lineAddrOf(tag uint64, set int) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.lineShift
}

// Slots returns the number of line slots (sets × ways). Slot numbers are
// in [0, Slots()).
func (c *Cache) Slots() int { return c.sets * c.cfg.Ways }

// Slot returns the slot number (set*Ways + way) holding addr's line, or -1
// if the line is not resident, without updating LRU or stats. A slot keeps
// its number while the line stays resident; a Fill that evicts the line
// reuses the slot for the new one. Owners keep per-line state in an array
// indexed by slot instead of growing Line, which every cache allocates.
func (c *Cache) Slot(addr uint64) int {
	set, tag := c.index(addr)
	lines, _ := c.set(set)
	for w := range lines {
		if l := &lines[w]; l.Valid && l.Tag == tag {
			return set*c.cfg.Ways + w
		}
	}
	return -1
}

// Probe reports whether addr hits, without updating LRU or stats.
func (c *Cache) Probe(addr uint64) (*Line, bool) {
	set, tag := c.index(addr)
	lines, _ := c.set(set)
	for w := range lines {
		if l := &lines[w]; l.Valid && l.Tag == tag {
			return l, true
		}
	}
	return nil, false
}

// Access looks up addr, updating LRU and stats. write marks the line dirty
// on a hit. It reports the hit and, on a hit, the line.
func (c *Cache) Access(addr uint64, write bool) (*Line, bool) {
	set, tag := c.index(addr)
	lines, order := c.set(set)
	for i, w := range order {
		l := &lines[w]
		if l.Valid && l.Tag == tag {
			touch(order, i)
			if write && c.cfg.WriteBck {
				l.Dirty = true
			}
			c.stats.Hits++
			if c.sink != nil {
				c.sink.Emit(obs.Event{Cycle: c.clock(), Kind: obs.EvCacheHit, Track: c.track, Addr: addr})
			}
			return l, true
		}
	}
	c.stats.Misses++
	if c.sink != nil {
		c.sink.Emit(obs.Event{Cycle: c.clock(), Kind: obs.EvCacheMiss, Track: c.track, Addr: addr})
	}
	return nil, false
}

// Victim describes a line evicted by Fill or dropped by Invalidate.
type Victim struct {
	Addr  uint64
	Dirty bool
	Aux   uint64
}

// Fill installs addr's line (after a miss), evicting the LRU way. It returns
// the filled line and, when a valid line was displaced (evicted), its
// identity. write marks the new line dirty.
func (c *Cache) Fill(addr uint64, write bool) (l *Line, v Victim, evicted bool) {
	set, tag := c.index(addr)
	lines, order := c.set(set)
	l = &lines[order[len(order)-1]]
	if l.Valid {
		c.stats.Evictions++
		v, evicted = Victim{Addr: c.lineAddrOf(l.Tag, set), Dirty: l.Dirty, Aux: l.Aux}, true
		if l.Dirty {
			c.stats.Writebacks++
		}
	}
	*l = Line{Tag: tag, Valid: true, Dirty: write && c.cfg.WriteBck}
	touch(order, len(order)-1)
	return l, v, evicted
}

// Invalidate drops addr's line if present, returning its prior state and
// whether it was present.
func (c *Cache) Invalidate(addr uint64) (Victim, bool) {
	set, tag := c.index(addr)
	lines, _ := c.set(set)
	for w := range lines {
		if l := &lines[w]; l.Valid && l.Tag == tag {
			l.Valid = false
			return Victim{Addr: c.LineAddr(addr), Dirty: l.Dirty, Aux: l.Aux}, true
		}
	}
	return Victim{}, false
}

// InvalidateAll drops every line, returning the dirty victims (for
// write-back flushing).
func (c *Cache) InvalidateAll() []Victim {
	var out []Victim
	for i := range c.lines {
		l := &c.lines[i]
		if l.Valid {
			if l.Dirty {
				out = append(out, Victim{
					Addr:  c.lineAddrOf(l.Tag, i/c.cfg.Ways),
					Dirty: true,
					Aux:   l.Aux,
				})
			}
			l.Valid = false
		}
	}
	return out
}

// touch makes order[i], a way of the set whose LRU order is order, its MRU
// way.
func touch(order []int32, i int) {
	w := order[i]
	copy(order[1:i+1], order[:i])
	order[0] = w
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (after cache warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }
