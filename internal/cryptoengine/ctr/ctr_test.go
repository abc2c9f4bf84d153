package ctr

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newEngine(t *testing.T, lineSize int) *Engine {
	t.Helper()
	e, err := NewEngine(make([]byte, 32), lineSize)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRoundTrip(t *testing.T) {
	e := newEngine(t, 64)
	pt := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(pt)
	ct, err := e.EncryptLine(0x1000, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	back, err := e.DecryptLine(0x1000, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("round trip failed")
	}
}

func TestInvalidSizes(t *testing.T) {
	if _, err := NewEngine(make([]byte, 32), 15); err == nil {
		t.Error("line size 15 accepted")
	}
	if _, err := NewEngine(make([]byte, 32), 0); err == nil {
		t.Error("line size 0 accepted")
	}
	if _, err := NewEngine(make([]byte, 5), 64); err == nil {
		t.Error("bad key accepted")
	}
	e := newEngine(t, 64)
	if _, err := e.EncryptLine(0, make([]byte, 32)); err == nil {
		t.Error("short plaintext accepted")
	}
	if _, err := e.DecryptLine(0, make([]byte, 32)); err == nil {
		t.Error("short ciphertext accepted")
	}
	if _, err := e.DecryptLineWithCounter(0, 1, make([]byte, 32)); err == nil {
		t.Error("short ciphertext accepted (explicit counter)")
	}
}

// The decisive property for the paper: counter mode is bit-malleable.
// Flipping ciphertext bit i flips exactly plaintext bit i.
func TestMalleability(t *testing.T) {
	e := newEngine(t, 64)
	pt := make([]byte, 64)
	for i := range pt {
		pt[i] = byte(i)
	}
	ct, _ := e.EncryptLine(0x2000, pt)
	for _, bit := range []int{0, 7, 63, 100, 511} {
		tampered := append([]byte(nil), ct...)
		tampered[bit/8] ^= 1 << (bit % 8)
		dec, _ := e.DecryptLine(0x2000, tampered)
		wanted := append([]byte(nil), pt...)
		wanted[bit/8] ^= 1 << (bit % 8)
		if !bytes.Equal(dec, wanted) {
			t.Fatalf("bit %d: malleability violated", bit)
		}
	}
}

// Pointer-conversion building block: XORing the ciphertext with
// (oldValue XOR newValue) rewrites the plaintext to newValue exactly.
func TestChosenPlaintextRewrite(t *testing.T) {
	e := newEngine(t, 64)
	pt := make([]byte, 64) // a NULL pointer lives at offset 16
	ct, _ := e.EncryptLine(0x3000, pt)
	target := uint64(0xdeadbeef)
	tampered := append([]byte(nil), ct...)
	for i := 0; i < 8; i++ {
		tampered[16+i] ^= 0 ^ byte(target>>(8*i)) // old value is zero
	}
	dec, _ := e.DecryptLine(0x3000, tampered)
	got := uint64(0)
	for i := 0; i < 8; i++ {
		got |= uint64(dec[16+i]) << (8 * i)
	}
	if got != target {
		t.Fatalf("rewrite produced %#x want %#x", got, target)
	}
}

func TestCounterAdvancesPerWrite(t *testing.T) {
	e := newEngine(t, 32)
	pt := make([]byte, 32)
	if e.Counter(0x40) != 0 {
		t.Fatal("fresh counter nonzero")
	}
	ct1, _ := e.EncryptLine(0x40, pt)
	ct2, _ := e.EncryptLine(0x40, pt)
	if e.Counter(0x40) != 2 {
		t.Fatalf("counter = %d want 2", e.Counter(0x40))
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("same pad reused across writes")
	}
}

// Replay: old ciphertext under the current counter decrypts to garbage, but
// decrypts correctly under its stale counter — the reason counter integrity
// (tree protection) matters.
func TestReplayNeedsStaleCounter(t *testing.T) {
	e := newEngine(t, 32)
	old := []byte("the old secret value 32 bytes!!!")
	ct1, _ := e.EncryptLine(0x80, old)
	ct2, _ := e.EncryptLine(0x80, make([]byte, 32)) // overwrite
	_ = ct2
	dec, _ := e.DecryptLine(0x80, ct1) // replay old ciphertext
	if bytes.Equal(dec, old) {
		t.Fatal("replayed ciphertext decrypted under new counter")
	}
	dec, _ = e.DecryptLineWithCounter(0x80, 1, ct1)
	if !bytes.Equal(dec, old) {
		t.Fatal("stale counter should decrypt replayed ciphertext")
	}
}

func TestPadsUniqueAcrossAddressesAndCounters(t *testing.T) {
	e := newEngine(t, 32)
	seen := map[string]bool{}
	for addr := uint64(0); addr < 8; addr++ {
		for ctr := uint64(0); ctr < 8; ctr++ {
			p := string(e.Pad(addr*32, ctr))
			if seen[p] {
				t.Fatalf("pad reuse at addr=%d ctr=%d", addr, ctr)
			}
			seen[p] = true
		}
	}
}

func TestPadChunks(t *testing.T) {
	if newEngine(t, 64).PadChunks() != 4 {
		t.Error("64B line should use 4 AES blocks")
	}
	if newEngine(t, 32).PadChunks() != 2 {
		t.Error("32B line should use 2 AES blocks")
	}
}

// Property: decrypt(encrypt(pt)) == pt for arbitrary lines and addresses.
func TestQuickRoundTrip(t *testing.T) {
	e := newEngine(t, 32)
	f := func(addr uint64, data [32]byte) bool {
		ct, err := e.EncryptLine(addr, data[:])
		if err != nil {
			return false
		}
		dec, err := e.DecryptLine(addr, ct)
		return err == nil && bytes.Equal(dec, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetCounter(t *testing.T) {
	e := newEngine(t, 32)
	e.SetCounter(0x100, 41)
	pt := make([]byte, 32)
	e.EncryptLine(0x100, pt)
	if e.Counter(0x100) != 42 {
		t.Fatalf("counter %d want 42", e.Counter(0x100))
	}
}

// An implied range counter reads like individually stored counters: the
// first write bumps from it, SetCounter overrides it per line, and lines
// outside the range keep counter zero.
func TestImplyCounter(t *testing.T) {
	e := newEngine(t, 32)
	e.ImplyCounter(0x100, 0x200, 1)
	for _, c := range []struct{ addr, want uint64 }{{0x0e0, 0}, {0x100, 1}, {0x1e0, 1}, {0x200, 0}} {
		if got := e.Counter(c.addr); got != c.want {
			t.Errorf("Counter(%#x) = %d, want %d", c.addr, got, c.want)
		}
	}
	pt := bytes.Repeat([]byte{3}, 32)
	ct, _ := e.EncryptLine(0x120, pt)
	if e.Counter(0x120) != 2 || e.Counter(0x140) != 1 {
		t.Fatalf("after write: counters %d, %d; want 2, 1", e.Counter(0x120), e.Counter(0x140))
	}
	if dec, _ := e.DecryptLineWithCounter(0x120, 2, ct); !bytes.Equal(dec, pt) {
		t.Fatal("write from an implied counter did not encrypt under counter 2")
	}
	e.SetCounter(0x140, 0)
	if e.Counter(0x140) != 0 {
		t.Fatal("SetCounter did not override the implied counter")
	}
}

// Implied ranges stay sorted and merge with same-counter neighbours, in
// whatever order they are declared; overlaps are refused.
func TestImplyCounterRanges(t *testing.T) {
	e := newEngine(t, 32)
	e.ImplyCounter(0x300, 0x400, 2)
	e.ImplyCounter(0x100, 0x200, 1)
	e.ImplyCounter(0x200, 0x300, 1) // joins the previous range
	e.ImplyCounter(0x500, 0x600, 2)
	e.ImplyCounter(0x400, 0x500, 2) // bridges two ranges
	if len(e.implied) != 2 {
		t.Fatalf("implied ranges %v, want two after merging", e.implied)
	}
	for _, c := range []struct{ addr, want uint64 }{
		{0x0e0, 0}, {0x100, 1}, {0x2e0, 1}, {0x300, 2}, {0x4a0, 2}, {0x5e0, 2}, {0x600, 0},
	} {
		if got := e.Counter(c.addr); got != c.want {
			t.Errorf("Counter(%#x) = %d, want %d", c.addr, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("overlapping implied range accepted")
		}
	}()
	e.ImplyCounter(0x1e0, 0x220, 3)
}

// SealInto is EncryptLineInto at an explicit counter, with no counter
// side effect.
func TestSealInto(t *testing.T) {
	e := newEngine(t, 32)
	pt := bytes.Repeat([]byte{9}, 32)
	got := make([]byte, 32)
	if err := e.SealInto(got, 0x40, 7, pt); err != nil {
		t.Fatal(err)
	}
	if e.Counter(0x40) != 0 {
		t.Fatal("SealInto touched the counter table")
	}
	e.SetCounter(0x40, 6)
	want, _ := e.EncryptLine(0x40, pt)
	if !bytes.Equal(got, want) {
		t.Fatal("SealInto differs from EncryptLine at the same counter")
	}
	if err := e.SealInto(got[:16], 0x40, 7, pt); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestCountersCopy pins Counters/SetCounters: another engine given the copy
// has every line's counter, implied or individual, and the two tables stay
// independent afterwards.
func TestCountersCopy(t *testing.T) {
	e := newEngine(t, 64)
	e.ImplyCounter(0x1000, 0x2000, 2)
	e.ImplyCounter(0x4000, 0x5000, 1)
	e.SetCounter(0x1040, 5)
	if _, err := e.EncryptLine(0x4080, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f := newEngine(t, 64)
	f.SetCounter(0x9000, 3) // replaced by the copy
	f.SetCounters(e.Counters())
	for _, a := range []uint64{0x1000, 0x1040, 0x1fc0, 0x2000, 0x4000, 0x4080, 0x9000} {
		if f.Counter(a) != e.Counter(a) {
			t.Errorf("line %#x: counter %d, want %d", a, f.Counter(a), e.Counter(a))
		}
	}
	f.SetCounter(0x1000, 9)
	f.ImplyCounter(0x6000, 0x7000, 4)
	if e.Counter(0x1000) != 2 || e.Counter(0x6000) != 0 {
		t.Error("writing the copy changed the original")
	}
}
