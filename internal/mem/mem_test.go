package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteBasics(t *testing.T) {
	m := New()
	if m.LoadByte(0x1234) != 0 {
		t.Error("fresh memory not zero")
	}
	m.StoreByte(0x1234, 0xab)
	if m.LoadByte(0x1234) != 0xab {
		t.Error("byte write lost")
	}
	data := []byte{1, 2, 3, 4, 5}
	m.Write(0xfff_e, data) // crosses page boundary
	if got := m.Read(0xfff_e, 5); !bytes.Equal(got, data) {
		t.Errorf("cross-page read %v", got)
	}
}

func TestUintAccessors(t *testing.T) {
	m := New()
	m.WriteUint(0x100, 0xdeadbeefcafebabe, 8)
	if got := m.ReadUint(0x100, 8); got != 0xdeadbeefcafebabe {
		t.Errorf("u64 %#x", got)
	}
	if got := m.ReadUint(0x100, 4); got != 0xcafebabe {
		t.Errorf("u32 low half %#x", got)
	}
	m.WriteUint(0x200, 0x11223344, 4)
	if got := m.ReadUint(0x200, 8); got != 0x11223344 {
		t.Errorf("u32 zero-extends: %#x", got)
	}
}

func TestXorRange(t *testing.T) {
	m := New()
	m.Write(0x40, []byte{0xf0, 0x0f})
	m.XorRange(0x40, []byte{0xff, 0xff})
	if got := m.Read(0x40, 2); !bytes.Equal(got, []byte{0x0f, 0xf0}) {
		t.Errorf("xor result %x", got)
	}
}

func TestSnapshotReplay(t *testing.T) {
	m := New()
	m.Write(0x80, []byte("old"))
	snap := m.Snapshot(0x80, 3)
	m.Write(0x80, []byte("new"))
	m.Write(0x80, snap)
	if got := m.Read(0x80, 3); string(got) != "old" {
		t.Errorf("replay got %q", got)
	}
}

func TestQuickMemoryConsistency(t *testing.T) {
	m := New()
	shadow := map[uint64]byte{}
	f := func(addr uint64, v byte) bool {
		addr %= 1 << 30
		m.StoreByte(addr, v)
		shadow[addr] = v
		return m.LoadByte(addr) == shadow[addr]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the page-chunked Read/Write/XorRange agree with a byte-at-a-
// time model for accesses of any length and alignment, including ones that
// span several pages and never-written pages.
func TestQuickChunkedAccess(t *testing.T) {
	m := New()
	model := map[uint64]byte{}
	f := func(off uint16, n uint16, op uint8, seed int64) bool {
		addr := uint64(off) % (3 * PageSize)
		data := make([]byte, int(n)%(2*PageSize+100))
		rand.New(rand.NewSource(seed)).Read(data)
		switch op % 3 {
		case 0:
			m.Write(addr, data)
			for i, b := range data {
				model[addr+uint64(i)] = b
			}
		case 1:
			m.XorRange(addr, data)
			for i, b := range data {
				model[addr+uint64(i)] ^= b
			}
		}
		got := m.Read(addr, len(data))
		for i := range got {
			if got[i] != model[addr+uint64(i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Every mutation path copies a shared page before writing: the shared
// buffer never changes, and the memory reads its own write afterwards. The
// read beforehand puts the shared page in the one-entry cache, which must
// not let the write through.
func TestSharedPageCopyOnWrite(t *testing.T) {
	const base = 0x7000
	writes := map[string]func(m *Memory){
		"StoreByte": func(m *Memory) { m.StoreByte(base+5, 0xee) },
		"Write":     func(m *Memory) { m.Write(base+5, []byte{0xee}) },
		"WriteUint": func(m *Memory) { m.WriteUint(base+5, 0xee, 1) },
		"XorRange":  func(m *Memory) { m.XorRange(base+5, []byte{0xee ^ 5}) },
		"spanning":  func(m *Memory) { m.Write(base-3, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xee}) },
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			shared := make([]byte, PageSize)
			for i := range shared {
				shared[i] = byte(i)
			}
			orig := bytes.Clone(shared)
			m, other := New(), New()
			m.SharePage(base, shared)
			other.SharePage(base, shared)
			if m.LoadByte(base+5) != 5 || m.ReadUint(base+8, 2) != 0x0908 {
				t.Fatal("shared page not readable")
			}
			if got := m.SharedPage(base + 100); len(got) != PageSize || &got[0] != &shared[0] {
				t.Fatal("SharedPage does not return the installed buffer")
			}
			write(m)
			if m.SharedPage(base) != nil {
				t.Fatal("SharedPage still reports the buffer after copy-on-write")
			}
			if got := other.SharedPage(base); len(got) == 0 || &got[0] != &shared[0] {
				t.Fatal("copy-on-write in one memory unshared the page in another")
			}
			if !bytes.Equal(shared, orig) {
				t.Fatal("write went through to the shared buffer")
			}
			if got := m.LoadByte(base + 5); got != 0xee {
				t.Fatalf("write lost: byte = %#x", got)
			}
			if got := m.LoadByte(base + 6); got != 6 {
				t.Fatalf("copy lost the page's other bytes: %#x", got)
			}
			if other.LoadByte(base+5) != 5 {
				t.Fatal("write leaked into another memory sharing the page")
			}
			m.StoreByte(base+7, 0xdd) // now private: a plain write
			if shared[7] != 7 || m.LoadByte(base+7) != 0xdd {
				t.Fatal("second write misbehaved")
			}
		})
	}
}

func TestSharePageReplacesAndValidates(t *testing.T) {
	m := New()
	m.StoreByte(0x2001, 9) // cached private page
	shared := make([]byte, PageSize)
	shared[1] = 4
	if m.SharedPage(0x2000) != nil || m.SharedPage(0x5000) != nil {
		t.Fatal("SharedPage reports a private or absent page as shared")
	}
	m.SharePage(0x2000, shared)
	if m.LoadByte(0x2001) != 4 {
		t.Fatal("SharePage did not replace the cached page")
	}
	for _, bad := range []func(){
		func() { m.SharePage(0x2001, shared) },
		func() { m.SharePage(0x3000, shared[:10]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("malformed SharePage accepted")
				}
			}()
			bad()
		}()
	}
}

// TestFreezeSharesOwnedPages pins Freeze: it returns exactly the pages the
// memory owns, leaves shared pages out, and the memory copies a frozen page
// before writing it, so a second memory sharing the returned buffers never
// sees the first one's writes.
func TestFreezeSharesOwnedPages(t *testing.T) {
	m := New()
	m.StoreByte(0x1003, 7) // owned, and in the one-entry cache
	m.StoreByte(0x3000, 1)
	table := make([]byte, PageSize)
	m.SharePage(0x5000, table)
	if m.Pages() != 3 {
		t.Fatalf("Pages() = %d, want 3", m.Pages())
	}
	frozen := m.Freeze()
	got := map[uint64]bool{}
	for _, p := range frozen {
		got[p.Addr] = true
	}
	if len(frozen) != 2 || !got[0x1000] || !got[0x3000] {
		t.Fatalf("Freeze returned %v, want the owned pages 0x1000 and 0x3000", got)
	}
	n := New()
	for _, p := range frozen {
		n.SharePage(p.Addr, p.B)
	}
	m.StoreByte(0x1003, 9) // through the cached page: must copy first
	m.XorRange(0x3000, []byte{0xff})
	if n.LoadByte(0x1003) != 7 || n.LoadByte(0x3000) != 1 {
		t.Fatal("a write after Freeze reached the frozen buffers")
	}
	if m.LoadByte(0x1003) != 9 || m.LoadByte(0x3000) != 0xfe {
		t.Fatal("writes after Freeze lost")
	}
	if len(m.Freeze()) != 2 {
		t.Fatal("the pages copied after the first Freeze are owned again")
	}
}

func TestAddressSpaceValidity(t *testing.T) {
	s := NewAddressSpace()
	if s.Valid(0x1000) {
		t.Error("unmapped address valid")
	}
	s.MapRange(0x1000, 8192)
	for _, a := range []uint64{0x1000, 0x1fff, 0x2000, 0x2fff} {
		if !s.Valid(a) {
			t.Errorf("%#x should be valid", a)
		}
	}
	if s.Valid(0x3000) {
		t.Error("page past range valid")
	}
	if s.MappedPages() != 2 {
		t.Errorf("mapped pages %d", s.MappedPages())
	}
	s.UnmapPage(0x1000)
	if s.Valid(0x1800) {
		t.Error("unmapped page still valid")
	}
	s.MapRange(0x5000, 0) // no-op
	if s.Valid(0x5000) {
		t.Error("zero-length map mapped a page")
	}
}

func TestAddressSpaceDisabled(t *testing.T) {
	s := NewAddressSpace()
	s.Disabled = true
	if !s.Valid(0xdeadbeef) {
		t.Error("disabled translation should accept anything")
	}
}

func TestFaultLog(t *testing.T) {
	s := NewAddressSpace()
	s.Fault(0xdead)
	s.Fault(0xbeef)
	log := s.FaultLog()
	if len(log) != 2 || log[0] != 0xdead || log[1] != 0xbeef {
		t.Errorf("fault log %v", log)
	}
	// The returned slice is a copy.
	log[0] = 0
	if s.FaultLog()[0] != 0xdead {
		t.Error("FaultLog returned live slice")
	}
}

func TestTLBBehaviour(t *testing.T) {
	tlb, err := NewTLB(128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tlb.Lookup(0x1000) {
		t.Error("cold TLB hit")
	}
	if !tlb.Lookup(0x1234) { // same page
		t.Error("same-page miss")
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats %d/%d", hits, misses)
	}
	tlb.Flush()
	if tlb.Lookup(0x1000) {
		t.Error("hit after flush")
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	tlb, err := NewTLB(8, 4) // 2 sets, 4 ways
	if err != nil {
		t.Fatal(err)
	}
	// Pages mapping to set 0: page numbers 0,2,4,... (pn % 2).
	pages := []uint64{0, 2, 4, 6} // fill set 0
	for _, pn := range pages {
		tlb.Lookup(pn << PageShift)
	}
	tlb.Lookup(0 << PageShift) // touch page 0: MRU
	tlb.Lookup(8 << PageShift) // evicts LRU = page 2
	if !tlb.Lookup(0 << PageShift) {
		t.Error("page 0 should survive")
	}
	if tlb.Lookup(2 << PageShift) {
		t.Error("page 2 should have been evicted")
	}
}

func TestTLBBadShape(t *testing.T) {
	if _, err := NewTLB(0, 4); err == nil {
		t.Error("0 entries accepted")
	}
	if _, err := NewTLB(10, 4); err == nil {
		t.Error("non-divisible shape accepted")
	}
}

// Property: ReadUint/WriteUint, which touch one page per access that fits
// in a page, agree with the byte-at-a-time model on every offset and width,
// across page boundaries, on never-written pages and on shared
// copy-on-write pages, whose buffer must never change.
func TestQuickUintMatchesByteLoop(t *testing.T) {
	shared := make([]byte, PageSize)
	rand.New(rand.NewSource(7)).Read(shared)
	pristine := bytes.Clone(shared)
	// Pages 0 and 3 start shared, page 1 absent, page 2 private.
	setup := func() *Memory {
		m := New()
		m.SharePage(0, shared)
		m.SharePage(3*PageSize, shared)
		m.Write(2*PageSize, pristine)
		return m
	}
	fast, ref := setup(), setup()
	refRead := func(addr uint64, n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v |= uint64(ref.LoadByte(addr+uint64(i))) << (8 * i)
		}
		return v
	}
	f := func(pg uint8, off uint16, nearEnd bool, n uint8, write bool, v uint64) bool {
		addr := uint64(pg%4) * PageSize
		if nearEnd {
			addr += PageSize - uint64(off%9) // 0..8 bytes before the next page
		} else {
			addr += uint64(off) % PageSize
		}
		width := int(n%8) + 1
		if write {
			fast.WriteUint(addr, v, width)
			for i := 0; i < width; i++ {
				ref.StoreByte(addr+uint64(i), byte(v>>(8*i)))
			}
		}
		for w := 1; w <= 8; w++ {
			if fast.ReadUint(addr, w) != refRead(addr, w) {
				return false
			}
		}
		return bytes.Equal(shared, pristine)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	// The whole four-page window agrees byte for byte afterwards.
	if !bytes.Equal(fast.Read(0, 4*PageSize+8), ref.Read(0, 4*PageSize+8)) {
		t.Error("memories diverge after the random accesses")
	}
	// A read of an absent page allocates nothing, and a zero-width write
	// is a no-op. The absent page stays cached until a page appears there.
	m := New()
	m.WriteUint(5*PageSize, 1, 0)
	if m.ReadUint(5*PageSize, 8) != 0 || len(m.pages) != 0 {
		t.Errorf("absent page: %d pages allocated", len(m.pages))
	}
	m.SharePage(5*PageSize, shared)
	if got, want := m.ReadUint(5*PageSize, 8), binary.LittleEndian.Uint64(shared); got != want {
		t.Errorf("shared over a cached absent page reads %#x, want %#x", got, want)
	}
	m.ReadUint(6*PageSize, 8)
	m.WriteUint(6*PageSize, 0xab, 1)
	if m.ReadUint(6*PageSize, 1) != 0xab {
		t.Error("write to a cached absent page lost")
	}
}

// checkRuns asserts the page-run representation's invariants: sorted,
// non-empty, disjoint and never adjacent.
func checkRuns(t *testing.T, s *AddressSpace) {
	t.Helper()
	for i, r := range s.runs {
		if r.lo >= r.hi {
			t.Fatalf("run %d empty: %+v", i, r)
		}
		if i > 0 && s.runs[i-1].hi >= r.lo {
			t.Fatalf("runs %d,%d overlap or touch: %+v %+v", i-1, i, s.runs[i-1], r)
		}
	}
}

// Property: random MapRange/UnmapPage sequences — overlapping, adjacent
// and zero-length ranges, splits at run ends and inside runs — agree page
// for page with a reference map, MappedPages included, and Disabled
// overrides every page without changing the map.
func TestAddressSpaceMatchesReferenceMap(t *testing.T) {
	const pages = 64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewAddressSpace()
		ref := map[uint64]bool{}
		for op := 0; op < 40; op++ {
			addr := uint64(rng.Intn(pages))*PageSize + uint64(rng.Intn(3))*uint64(rng.Intn(PageSize))
			if rng.Intn(3) > 0 {
				n := uint64(rng.Intn(6)) * PageSize
				if rng.Intn(2) == 0 {
					n += uint64(rng.Intn(PageSize))
				}
				s.MapRange(addr, n)
				if n > 0 {
					for pn := addr >> PageShift; pn <= (addr+n-1)>>PageShift; pn++ {
						ref[pn] = true
					}
				}
			} else {
				s.UnmapPage(addr)
				delete(ref, addr>>PageShift)
			}
			checkRuns(t, s)
			if s.MappedPages() != len(ref) {
				t.Fatalf("seed %d op %d: MappedPages %d, want %d", seed, op, s.MappedPages(), len(ref))
			}
			for pn := uint64(0); pn < pages+8; pn++ {
				a := pn<<PageShift + uint64(rng.Intn(PageSize))
				if s.Valid(a) != ref[pn] {
					t.Fatalf("seed %d op %d: Valid(%#x) = %v, want %v (runs %v)", seed, op, a, s.Valid(a), ref[pn], s.runs)
				}
			}
		}
		s.Disabled = true
		for pn := uint64(0); pn < pages+8; pn++ {
			if !s.Valid(pn << PageShift) {
				t.Fatalf("seed %d: Disabled space rejects page %d", seed, pn)
			}
		}
		s.Disabled = false
		for pn := uint64(0); pn < pages+8; pn++ {
			if s.Valid(pn<<PageShift) != ref[pn] {
				t.Fatalf("seed %d: page %d changed across Disabled", seed, pn)
			}
		}
	}
}

// Valid sits on every fetch and load of the simulated machine: it must not
// allocate.
func TestAddressSpaceValidAllocs(t *testing.T) {
	s := NewAddressSpace()
	for i := uint64(0); i < 8; i++ {
		s.MapRange(i*16*PageSize, 4*PageSize)
	}
	var sink bool
	allocs := testing.AllocsPerRun(1000, func() {
		for a := uint64(0); a < 128*PageSize; a += PageSize / 2 {
			sink = s.Valid(a) != sink
		}
	})
	if allocs != 0 {
		t.Errorf("Valid allocates %.1f times per run", allocs)
	}
}
