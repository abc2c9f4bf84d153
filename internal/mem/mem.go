// Package mem provides the physical memory backing store and the virtual
// address validity model of the simulated machine.
//
// Physical memory is sparse (page-granular allocation) and byte-addressed.
// It stores whatever the memory controller puts there — for protected
// regions that is ciphertext plus MACs, which is exactly what an adversary
// probing the DIMMs would see. Tampering helpers operate on this store.
package mem

import (
	"bytes"
	"fmt"
	"slices"
)

// PageSize is the virtual/physical page size (4KB, the paper's §3.3 premise:
// the low 12 address bits survive translation untouched).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Memory is a sparse byte-addressable physical memory.
//
// A page may be shared: installed by SharePage from a buffer that other
// memories (or a process-wide table) also reference, and never written
// through. Every mutation path copies a shared page into a private one
// before its first write (copy-on-write), so a memory with shared pages
// behaves exactly like one that owns copies of them.
type Memory struct {
	pages map[uint64]page
	// One-entry page cache: simulator accesses are heavily page-local, and
	// this keeps the hot path off the map. lastOwned says lastPage is
	// private, so writes may go through the cache; a cached shared page is
	// read-only.
	lastPN    uint64
	lastPage  []byte
	lastOwned bool
}

type page struct {
	b      []byte
	shared bool
}

// New creates an empty memory.
func New() *Memory {
	return &Memory{pages: map[uint64]page{}, lastPN: ^uint64(0)}
}

// readPage returns the page containing addr for reading, nil if it was
// never written. An absent page is cached too (as nil): a scan over a
// never-written region then costs one map lookup per page, not per access.
// Only writePage and SharePage add pages, and both update the cache.
func (m *Memory) readPage(addr uint64) []byte {
	pn := addr >> PageShift
	if pn == m.lastPN {
		return m.lastPage
	}
	p := m.pages[pn]
	m.lastPN, m.lastPage, m.lastOwned = pn, p.b, p.b != nil && !p.shared
	return p.b
}

// writePage returns the page containing addr for writing: allocated if
// absent, copied first if shared.
func (m *Memory) writePage(addr uint64) []byte {
	pn := addr >> PageShift
	if pn == m.lastPN && m.lastOwned {
		return m.lastPage
	}
	p, ok := m.pages[pn]
	switch {
	case !ok:
		p = page{b: make([]byte, PageSize)}
		m.pages[pn] = p
	case p.shared:
		p = page{b: append(make([]byte, 0, PageSize), p.b...)}
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage, m.lastOwned = pn, p.b, true
	return p.b
}

// SharePage installs b as the contents of the page at addr (page-aligned)
// without copying it, replacing whatever the page held. The memory never
// writes b: its first write to the page copies it. b must be PageSize bytes
// and must not change afterwards.
func (m *Memory) SharePage(addr uint64, b []byte) {
	if addr&(PageSize-1) != 0 || len(b) != PageSize {
		panic(fmt.Sprintf("mem: SharePage(%#x, %d bytes) is not one aligned page", addr, len(b)))
	}
	pn := addr >> PageShift
	m.pages[pn] = page{b: b, shared: true}
	if pn == m.lastPN {
		m.lastPN, m.lastPage = ^uint64(0), nil
	}
}

// Page is one page of a memory: its page-aligned address and its bytes.
type Page struct {
	Addr uint64
	B    []byte
}

// Pages reports how many pages the memory holds, shared or not.
func (m *Memory) Pages() int { return len(m.pages) }

// Freeze returns every page the memory owns and makes each one shared: the
// memory copies a page before its next write to it, as if SharePage had
// installed it, so no memory writes the returned buffers again. The caller
// may install them into other memories with SharePage.
func (m *Memory) Freeze() []Page {
	var out []Page
	for pn, p := range m.pages {
		if !p.shared {
			m.pages[pn] = page{b: p.b, shared: true}
			out = append(out, Page{Addr: pn << PageShift, B: p.b})
		}
	}
	m.lastOwned = false
	return out
}

// SharedPage returns the buffer SharePage installed (or Freeze shared) for
// the page holding addr while the memory still reads through it: nil once a
// write has copied the page (or when the page was never shared).
func (m *Memory) SharedPage(addr uint64) []byte {
	p := m.readPage(addr)
	if m.lastOwned {
		return nil
	}
	return p
}

// LoadByte returns the byte at addr (0 if the page was never written).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	return p[addr&(PageSize-1)]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.writePage(addr)[addr&(PageSize-1)] = v
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(out, addr)
	return out
}

// chunk returns the length of the piece of an n-byte access at addr that
// stays within addr's page.
func chunk(addr uint64, n int) int {
	return min(n, PageSize-int(addr&(PageSize-1)))
}

// ReadInto fills dst with len(dst) bytes starting at addr without
// allocating (the secure-memory controller's per-fetch path). It copies a
// page-sized piece at a time; never-written pages read as zeroes.
func (m *Memory) ReadInto(dst []byte, addr uint64) {
	for len(dst) > 0 {
		n := chunk(addr, len(dst))
		if p := m.readPage(addr); p != nil {
			copy(dst[:n], p[addr&(PageSize-1):])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+uint64(n)
	}
}

// Write stores data starting at addr, a page-sized piece at a time. A piece
// of zeroes bound for a never-written page is skipped: the page already
// reads as zeroes, so a loaded image's zero-filled data costs no pages.
func (m *Memory) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		n := chunk(addr, len(data))
		if m.readPage(addr) != nil || !IsZero(data[:n]) {
			copy(m.writePage(addr)[addr&(PageSize-1):], data[:n])
		}
		data, addr = data[n:], addr+uint64(n)
	}
}

var zeroPage [PageSize]byte

// IsZero reports whether b holds only zero bytes.
func IsZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), PageSize)
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// ReadUint reads an n-byte little-endian unsigned integer (n <= 8). An
// access within one page costs one page lookup; one that crosses a page
// boundary goes byte by byte.
func (m *Memory) ReadUint(addr uint64, n int) uint64 {
	off := addr & (PageSize - 1)
	if off+uint64(n) > PageSize {
		var v uint64
		for i := 0; i < n; i++ {
			v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
		}
		return v
	}
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	var v uint64
	for i, b := range p[off : off+uint64(n)] {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// WriteUint stores an n-byte little-endian unsigned integer (n <= 8), with
// one page lookup when the access stays within a page.
func (m *Memory) WriteUint(addr uint64, v uint64, n int) {
	if n <= 0 {
		return
	}
	off := addr & (PageSize - 1)
	if off+uint64(n) > PageSize {
		for i := 0; i < n; i++ {
			m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
		}
		return
	}
	p := m.writePage(addr)[off : off+uint64(n)]
	for i := range p {
		p[i] = byte(v >> (8 * i))
	}
}

// XorRange XORs mask into memory at addr — the adversary's bit-flipping
// primitive against ciphertext at rest.
func (m *Memory) XorRange(addr uint64, mask []byte) {
	for len(mask) > 0 {
		n := chunk(addr, len(mask))
		p := m.writePage(addr)[addr&(PageSize-1):]
		for i, b := range mask[:n] {
			p[i] ^= b
		}
		mask, addr = mask[n:], addr+uint64(n)
	}
}

// Snapshot copies n bytes for later replay (replay attacks re-Write them).
func (m *Memory) Snapshot(addr uint64, n int) []byte { return m.Read(addr, n) }

// AddressSpace models virtual address validity. The simulated machine uses
// an identity mapping (VA == PA) — sufficient for the paper's experiments —
// but tracks which pages are mapped so that wild fetch addresses fault, and
// keeps the fault log that Section 3.3's "read the displayed fault address"
// attack consumes.
type AddressSpace struct {
	// runs are the mapped pages as half-open page-number runs [lo, hi),
	// sorted, disjoint and never adjacent (touching runs are merged). A
	// machine maps a handful of regions, so Valid is a binary search over
	// a few runs instead of a map lookup per access.
	runs []pageRun
	// Disabled turns off translation checking entirely, as on the no-VM
	// embedded processors the paper notes (§3.3): every address is valid.
	Disabled bool
	faultLog []uint64
}

// pageRun is the page-number range [lo, hi).
type pageRun struct{ lo, hi uint64 }

// NewAddressSpace creates an address space with no valid pages.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// search returns the index of the first run with hi > pn: the run that
// contains pn if any does, else where a run starting at pn would go.
func (s *AddressSpace) search(pn uint64) int {
	lo, hi := 0, len(s.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.runs[mid].hi <= pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MapRange marks [addr, addr+n) valid, merging it with every run it
// overlaps or touches. A range past the top of the address space is
// clipped there.
func (s *AddressSpace) MapRange(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	end := addr + n - 1
	if end < addr {
		end = ^uint64(0)
	}
	r := pageRun{addr >> PageShift, end>>PageShift + 1}
	// Runs [i, j) overlap or touch r: run i is the first whose end reaches
	// r.lo, run j the first that starts past r.hi.
	i := s.search(r.lo)
	if i > 0 && s.runs[i-1].hi == r.lo {
		i--
	}
	j := i
	for j < len(s.runs) && s.runs[j].lo <= r.hi {
		j++
	}
	if i < j {
		r.lo = min(r.lo, s.runs[i].lo)
		r.hi = max(r.hi, s.runs[j-1].hi)
	}
	s.runs = slices.Replace(s.runs, i, j, r)
}

// UnmapPage invalidates the page containing addr, splitting its run when
// the page lies inside one.
func (s *AddressSpace) UnmapPage(addr uint64) {
	pn := addr >> PageShift
	i := s.search(pn)
	if i == len(s.runs) || s.runs[i].lo > pn {
		return
	}
	r := s.runs[i]
	switch {
	case r.lo == pn && r.hi == pn+1:
		s.runs = slices.Delete(s.runs, i, i+1)
	case r.lo == pn:
		s.runs[i].lo++
	case r.hi == pn+1:
		s.runs[i].hi--
	default:
		s.runs[i].hi = pn
		s.runs = slices.Insert(s.runs, i+1, pageRun{pn + 1, r.hi})
	}
}

// Valid reports whether addr is mapped.
func (s *AddressSpace) Valid(addr uint64) bool {
	if s.Disabled {
		return true
	}
	pn := addr >> PageShift
	i := s.search(pn)
	return i < len(s.runs) && s.runs[i].lo <= pn
}

// MappedPages returns how many pages are mapped.
func (s *AddressSpace) MappedPages() int {
	n := uint64(0)
	for _, r := range s.runs {
		n += r.hi - r.lo
	}
	return int(n)
}

// Fault records a translation fault for addr. Faulting addresses are logged
// in the clear: the paper observes that real systems display or log faulting
// addresses, so a fault is itself a disclosure channel.
func (s *AddressSpace) Fault(addr uint64) {
	s.faultLog = append(s.faultLog, addr)
}

// FaultLog returns all faulting addresses recorded so far.
func (s *AddressSpace) FaultLog() []uint64 {
	return append([]uint64(nil), s.faultLog...)
}

// TLB is a set-associative translation lookaside buffer timing model. It
// holds page numbers only; translation itself is identity.
type TLB struct {
	sets  int
	ways  int
	tags  [][]uint64 // page numbers; ^0 = invalid
	order [][]int    // LRU order per set: order[s][0] is MRU way
	hits  uint64
	miss  uint64
}

// NewTLB creates a TLB with the given total entries and associativity.
func NewTLB(entries, ways int) (*TLB, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("mem: bad TLB shape entries=%d ways=%d", entries, ways)
	}
	sets := entries / ways
	t := &TLB{sets: sets, ways: ways}
	t.tags = make([][]uint64, sets)
	t.order = make([][]int, sets)
	for s := 0; s < sets; s++ {
		t.tags[s] = make([]uint64, ways)
		t.order[s] = make([]int, ways)
		for w := 0; w < ways; w++ {
			t.tags[s][w] = ^uint64(0)
			t.order[s][w] = w
		}
	}
	return t, nil
}

// Lookup probes the TLB for addr's page, filling on miss, and reports hit.
func (t *TLB) Lookup(addr uint64) bool {
	pn := addr >> PageShift
	set := int(pn % uint64(t.sets))
	for _, w := range t.order[set] {
		if t.tags[set][w] == pn {
			t.touch(set, w)
			t.hits++
			return true
		}
	}
	t.miss++
	victim := t.order[set][t.ways-1]
	t.tags[set][victim] = pn
	t.touch(set, victim)
	return false
}

func (t *TLB) touch(set, way int) {
	ord := t.order[set]
	for i, w := range ord {
		if w == way {
			copy(ord[1:i+1], ord[:i])
			ord[0] = way
			return
		}
	}
}

// Stats returns hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.miss }

// Flush invalidates all entries.
func (t *TLB) Flush() {
	for s := range t.tags {
		for w := range t.tags[s] {
			t.tags[s][w] = ^uint64(0)
		}
	}
}
