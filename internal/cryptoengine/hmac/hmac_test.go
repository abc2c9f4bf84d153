package hmac

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha "crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// RFC 4231 test vectors for HMAC-SHA256.
func TestRFC4231(t *testing.T) {
	cases := []struct{ key, data, want string }{
		{
			"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
			"4869205468657265", // "Hi There"
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
		},
		{
			"4a656665", // "Jefe"
			"7768617420646f2079612077616e7420666f72206e6f7468696e673f",
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
		},
		{
			"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
			"dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd" + "dddd",
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
		},
	}
	for i, c := range cases {
		key, _ := hex.DecodeString(c.key)
		data, _ := hex.DecodeString(c.data)
		got := Mac(key, data)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("case %d: %x want %s", i, got, c.want)
		}
	}
}

func TestLongKeyIsHashed(t *testing.T) {
	key := bytes.Repeat([]byte{0xaa}, 131) // RFC 4231 case 6-style key > blocksize
	data := []byte("Test Using Larger Than Block-Size Key - Hash Key First")
	got := Mac(key, data)
	std := stdhmac.New(stdsha.New, key)
	std.Write(data)
	if !bytes.Equal(got[:], std.Sum(nil)) {
		t.Errorf("long-key mismatch with stdlib")
	}
}

func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		key := make([]byte, rng.Intn(100))
		msg := make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(msg)
		got := Mac(key, msg)
		std := stdhmac.New(stdsha.New, key)
		std.Write(msg)
		if !bytes.Equal(got[:], std.Sum(nil)) {
			t.Fatalf("mismatch keylen=%d msglen=%d", len(key), len(msg))
		}
	}
}

// A truncated 64-bit line MAC verifies, and any single-bit tamper of the
// message or the MAC is rejected.
func TestTruncatedVerify(t *testing.T) {
	k := NewKey([]byte("processor-integrity-key"))
	msg := []byte("a 64-byte cache line of protected data.........................")
	full := k.Mac(msg)
	mac := full[:8]
	if !k.Verify(msg, mac) {
		t.Fatal("valid MAC rejected")
	}
	for bit := 0; bit < len(msg)*8; bit += 37 {
		tampered := append([]byte(nil), msg...)
		tampered[bit/8] ^= 1 << (bit % 8)
		if k.Verify(tampered, mac) {
			t.Fatalf("tampered bit %d accepted", bit)
		}
	}
	badMac := append([]byte(nil), mac...)
	badMac[0] ^= 1
	if k.Verify(msg, badMac) {
		t.Fatal("tampered MAC accepted")
	}
}

func TestVerifyEdgeCases(t *testing.T) {
	k := NewKey([]byte("k"))
	if k.Verify([]byte("m"), nil) {
		t.Error("empty MAC accepted")
	}
	if k.Verify([]byte("m"), make([]byte, 33)) {
		t.Error("oversize MAC accepted")
	}
}

// Property: verification succeeds iff the message is untampered.
func TestQuickTamperDetection(t *testing.T) {
	k := NewKey([]byte("quick-key"))
	f := func(msg []byte, flipByte uint16, flipBit uint8) bool {
		if len(msg) == 0 {
			return true
		}
		full := k.Mac(msg)
		mac := full[:8]
		if !k.Verify(msg, mac) {
			return false
		}
		tampered := append([]byte(nil), msg...)
		tampered[int(flipByte)%len(msg)] ^= 1 << (flipBit % 8)
		return !k.Verify(tampered, mac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPaddedBlocksMatchesLineCost(t *testing.T) {
	// A 64-byte cache line costs 2 hash blocks (64+9 > 64); with the
	// paper's 74ns hash-unit this is the per-line verification work.
	if PaddedBlocks(64) != 2 {
		t.Errorf("PaddedBlocks(64) = %d", PaddedBlocks(64))
	}
	if PaddedBlocks(32) != 1 {
		t.Errorf("PaddedBlocks(32) = %d", PaddedBlocks(32))
	}
}

// Property: a precomputed Key MACs exactly like crypto/hmac, for keys on
// both sides of the block size (longer keys are hashed first) and message
// lengths 0–200.
func TestKeyAgainstStdlib(t *testing.T) {
	f := func(key []byte, keyPad uint8, msgLen uint8, seed int64) bool {
		// Stretch some keys past the 64-byte block so the hash-first rule
		// is exercised, not just short keys.
		key = append(key, bytes.Repeat([]byte{keyPad}, int(keyPad)%100)...)
		msg := make([]byte, int(msgLen)%201)
		rand.New(rand.NewSource(seed)).Read(msg)
		k := NewKey(key)
		got := k.Mac(msg)
		std := stdhmac.New(stdsha.New, key)
		std.Write(msg)
		want := std.Sum(nil)
		return bytes.Equal(got[:], want) && k.Verify(msg, want[:8]) && got == Mac(key, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	long := NewKey(bytes.Repeat([]byte{0xaa}, 131))
	for n := 0; n <= 200; n++ {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		std := stdhmac.New(stdsha.New, bytes.Repeat([]byte{0xaa}, 131))
		std.Write(msg)
		if got := long.Mac(msg); !bytes.Equal(got[:], std.Sum(nil)) {
			t.Fatalf("long key, msg len %d: mismatch with crypto/hmac", n)
		}
	}
}

// lineMsg is the secure-memory controller's MAC message for one 64-byte
// line: 8-byte address, 8-byte counter, 64 bytes of ciphertext.
var lineMsg = bytes.Repeat([]byte{0x5a}, 80)

// TestKeyMacAllocs pins the keyed per-line MAC as allocation-free.
func TestKeyMacAllocs(t *testing.T) {
	k := NewKey([]byte("authpoint-integrity--key-256bit!"))
	var sink [Size]byte
	if n := testing.AllocsPerRun(100, func() { sink = k.Mac(lineMsg) }); n != 0 {
		t.Errorf("Key.Mac allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = k.Verify(lineMsg, sink[:8]) }); n != 0 {
		t.Errorf("Key.Verify allocates %v times per call", n)
	}
}

// BenchmarkLineMac measures one 80-byte line MAC under a precomputed Key
// (three SHA-256 compressions) and through hmac.Mac (five).
func BenchmarkLineMac(b *testing.B) {
	key := []byte("authpoint-integrity--key-256bit!")
	var sink [Size]byte
	b.Run("keyed", func(b *testing.B) {
		k := NewKey(key)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = k.Mac(lineMsg)
		}
	})
	b.Run("unkeyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = Mac(key, lineMsg)
		}
	})
	_ = sink
}
