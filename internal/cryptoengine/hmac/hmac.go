// Package hmac implements HMAC-SHA256 (RFC 2104 / FIPS 198) over the
// from-scratch SHA-256 in this repository, with truncated-MAC verification
// for the secure processor: the paper's reference design stores a 64-bit
// truncated HMAC alongside every protected cache line (Section 5.2.3).
package hmac

import (
	"crypto/subtle"

	"authpoint/internal/cryptoengine/sha256"
)

// Size is the full MAC size in bytes before truncation.
const Size = sha256.Size

// Key is an HMAC-SHA256 key with its padded inner and outer key blocks
// already absorbed (the precomputation of RFC 2104 §4). A MAC under a Key
// starts from the saved states, so an 80-byte line MAC costs three SHA-256
// compressions instead of five. A Key is immutable once built and safe for
// concurrent use; the zero value is not usable.
type Key struct {
	inner, outer sha256.Digest
}

// NewKey precomputes the inner and outer hash states for key. Keys longer
// than the SHA-256 block are hashed first, as RFC 2104 specifies.
func NewKey(key []byte) Key {
	var k [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		copy(k[:], sum[:])
	} else {
		copy(k[:], key)
	}
	var ipad, opad [sha256.BlockSize]byte
	for i := range k {
		ipad[i] = k[i] ^ 0x36
		opad[i] = k[i] ^ 0x5c
	}
	var s Key
	s.inner.Reset()
	s.inner.Write(ipad[:])
	s.outer.Reset()
	s.outer.Write(opad[:])
	return s
}

// Mac computes HMAC-SHA256 of msg under k. It does not allocate: the
// simulated authentication engine MACs every external line fetch.
func (k *Key) Mac(msg []byte) [Size]byte {
	d := k.inner
	d.Write(msg)
	var innerSum [Size]byte
	d.SumInto(&innerSum)
	d = k.outer
	d.Write(innerSum[:])
	var out [Size]byte
	d.SumInto(&out)
	return out
}

// Verify reports whether mac equals the truncated HMAC of msg under k, in
// constant time. Like Mac, it does not allocate.
func (k *Key) Verify(msg, mac []byte) bool {
	if len(mac) == 0 || len(mac) > Size {
		return false
	}
	want := k.Mac(msg)
	return subtle.ConstantTimeCompare(want[:len(mac)], mac) == 1
}

// Mac computes HMAC-SHA256(key, msg) without allocating. Callers that MAC
// repeatedly under one key should build a Key once instead.
func Mac(key, msg []byte) [Size]byte {
	k := NewKey(key)
	return k.Mac(msg)
}

// PaddedBlocks reports how many hash-unit invocations authenticating an
// n-byte message costs. HMAC needs two passes (inner and outer), but in the
// hardware reference the outer pass over the fixed-size inner digest is
// pipelined; the dominant term — and the one the paper's 74ns figure charges
// — is the inner hash over the padded message. The timing model therefore
// charges PaddedBlocks(n) hash latencies per MAC.
func PaddedBlocks(n int) int { return sha256.PaddedBlocks(n) }
