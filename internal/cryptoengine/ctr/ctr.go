// Package ctr implements counter-mode memory encryption for the secure
// processor, following the style of the counter-mode secure processor designs
// the paper cites ([19, 23, 27]): each protected cache line is encrypted by
// XOR with a one-time pad derived from AES over (line address, per-line
// counter, chunk index).
//
// The essential property for the paper is that counter mode is *malleable*:
// flipping bit i of the ciphertext flips exactly bit i of the decrypted
// plaintext. The attack package exploits this for pointer conversion, binary
// search, and disclosing-kernel injection; the authentication architecture
// exists to catch it.
//
// The second essential property is timing: the pad depends only on
// (address, counter), so when the counter is available on-chip (counter-cache
// hit) pad generation proceeds *in parallel* with the memory fetch, making
// effective decryption latency max(fetch, decrypt) — Table 1 of the paper.
package ctr

import (
	"fmt"
	"slices"

	"authpoint/internal/cryptoengine/aes"
	"authpoint/internal/obs"
)

// Engine encrypts and decrypts fixed-size memory lines in counter mode.
// It also maintains the per-line counter table (the authoritative copy that a
// real system would keep encrypted in memory with an on-chip counter cache).
type Engine struct {
	cipher   *aes.Cipher
	lineSize int
	counters map[uint64]uint64 // line address -> write counter
	// implied holds the counters of lines sealed in bulk: a line inside one
	// of these ranges with no entry in counters has the range's counter.
	// This keeps the table O(written lines), not O(protected lines).
	implied []impliedRange

	sink  obs.Sink
	clock func() uint64
}

type impliedRange struct{ start, end, ctr uint64 }

// ImplyCounter sets the counter of every line in [start, end) that has no
// counter of its own to ctr. The owner uses it for a region it sealed in
// bulk at one counter value; Counter, SetCounter and encryption behave as if
// each line's counter had been stored individually. Implied ranges must not
// overlap; they are kept sorted, and a range adjoining another with the
// same counter merges into it, so page-by-page calls over a region stay one
// entry.
func (e *Engine) ImplyCounter(start, end, ctr uint64) {
	i := e.impliedAt(start)
	if (i > 0 && e.implied[i-1].end > start) || (i < len(e.implied) && e.implied[i].start < end) {
		panic(fmt.Sprintf("ctr: implied counter range [%#x,%#x) overlaps another", start, end))
	}
	joinPrev := i > 0 && e.implied[i-1].end == start && e.implied[i-1].ctr == ctr
	joinNext := i < len(e.implied) && e.implied[i].start == end && e.implied[i].ctr == ctr
	switch {
	case joinPrev && joinNext:
		e.implied[i-1].end = e.implied[i].end
		e.implied = slices.Delete(e.implied, i, i+1)
	case joinPrev:
		e.implied[i-1].end = end
	case joinNext:
		e.implied[i].start = start
	default:
		e.implied = slices.Insert(e.implied, i, impliedRange{start, end, ctr})
	}
}

// impliedAt returns the index of the first implied range ending after addr.
func (e *Engine) impliedAt(addr uint64) int {
	lo, hi := 0, len(e.implied)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.implied[mid].end > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// SetObserver attaches an event sink. The engine is functional (untimed), so
// the owner supplies a clock closure reading the cycle its current timed
// operation is charged to.
func (e *Engine) SetObserver(s obs.Sink, clock func() uint64) {
	e.sink = s
	e.clock = clock
}

func (e *Engine) emit(addr uint64, decrypt uint64) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(obs.Event{Cycle: e.clock(), Kind: obs.EvCryptOp, Track: obs.TrackCrypto,
		Addr: addr, A: decrypt, B: uint64(e.PadChunks())})
}

// NewEngine creates a counter-mode engine. lineSize must be a positive
// multiple of the AES block size.
func NewEngine(key []byte, lineSize int) (*Engine, error) {
	if lineSize <= 0 || lineSize%aes.BlockSize != 0 {
		return nil, fmt.Errorf("ctr: line size %d is not a positive multiple of %d", lineSize, aes.BlockSize)
	}
	c, err := aes.New(key)
	if err != nil {
		return nil, err
	}
	return &Engine{cipher: c, lineSize: lineSize, counters: map[uint64]uint64{}}, nil
}

// LineSize returns the engine's line size in bytes.
func (e *Engine) LineSize() int { return e.lineSize }

// PadChunks returns the number of AES invocations needed to produce the pad
// for one line. A pipelined hardware unit produces them in parallel, so the
// timing model charges one decryption latency regardless; the count is used
// by throughput-limited configurations.
func (e *Engine) PadChunks() int { return e.lineSize / aes.BlockSize }

// Counter returns the current write counter for the line at addr.
func (e *Engine) Counter(addr uint64) uint64 {
	if c, ok := e.counters[addr]; ok {
		return c
	}
	if i := e.impliedAt(addr); i < len(e.implied) && e.implied[i].start <= addr {
		return e.implied[i].ctr
	}
	return 0
}

// SetCounter overrides a line counter (used by replay-attack tests that roll
// a counter back).
func (e *Engine) SetCounter(addr, ctr uint64) { e.counters[addr] = ctr }

// Counters is a frozen copy of an engine's counter table.
type Counters struct {
	implied []impliedRange
	lines   []lineCounter
}

type lineCounter struct{ addr, ctr uint64 }

// Counters returns a copy of the counter table: the implied ranges and the
// counters of individual lines.
func (e *Engine) Counters() Counters {
	s := Counters{implied: slices.Clone(e.implied), lines: make([]lineCounter, 0, len(e.counters))}
	for a, c := range e.counters {
		s.lines = append(s.lines, lineCounter{a, c})
	}
	return s
}

// SetCounters replaces the counter table with a copy of s: every line then
// has the counter it had in the engine s was taken from.
func (e *Engine) SetCounters(s Counters) {
	e.implied = slices.Clone(s.implied)
	clear(e.counters)
	for _, l := range s.lines {
		e.counters[l.addr] = l.ctr
	}
}

// Pad computes the one-time pad for the line at addr under counter ctr.
func (e *Engine) Pad(addr, ctr uint64) []byte {
	pad := make([]byte, e.lineSize)
	e.padInto(pad, addr, ctr)
	return pad
}

// padInto writes the one-time pad for (addr, ctr) into dst, which must be
// lineSize bytes. Allocation-free: every external line fetch goes through
// here.
func (e *Engine) padInto(dst []byte, addr, ctr uint64) {
	var block [aes.BlockSize]byte
	for chunk := 0; chunk < e.PadChunks(); chunk++ {
		// Seed block: address, counter, chunk index. Unique per
		// (line, version, chunk) triple, which is what counter-mode security
		// requires.
		putUint64(block[0:8], addr)
		putUint64(block[8:16], ctr+uint64(chunk)<<48)
		e.cipher.Encrypt(dst[chunk*aes.BlockSize:], block[:])
	}
}

// EncryptLine encrypts plaintext for the line at addr, bumping its counter.
// The returned ciphertext has the same length as the engine line size.
func (e *Engine) EncryptLine(addr uint64, plaintext []byte) ([]byte, error) {
	out := make([]byte, e.lineSize)
	if err := e.EncryptLineInto(out, addr, plaintext); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptLineInto is EncryptLine writing the ciphertext into dst (lineSize
// bytes) without allocating. dst must not alias plaintext.
func (e *Engine) EncryptLineInto(dst []byte, addr uint64, plaintext []byte) error {
	if len(plaintext) != e.lineSize {
		return fmt.Errorf("ctr: plaintext length %d != line size %d", len(plaintext), e.lineSize)
	}
	ctr := e.Counter(addr) + 1
	e.counters[addr] = ctr
	e.emit(addr, 0)
	return e.SealInto(dst, addr, ctr, plaintext)
}

// SealInto encrypts plaintext for the line at addr under the explicit
// counter ctr into dst (lineSize bytes, not aliasing plaintext). It is the
// pure core of EncryptLineInto: it neither reads nor bumps the counter table
// and emits no event, so a line's at-rest form can be computed ahead of use.
func (e *Engine) SealInto(dst []byte, addr, ctr uint64, plaintext []byte) error {
	if len(plaintext) != e.lineSize {
		return fmt.Errorf("ctr: plaintext length %d != line size %d", len(plaintext), e.lineSize)
	}
	if len(dst) != e.lineSize {
		return fmt.Errorf("ctr: ciphertext buffer length %d != line size %d", len(dst), e.lineSize)
	}
	e.padInto(dst, addr, ctr)
	xorInto(dst, plaintext)
	return nil
}

// DecryptLine decrypts ciphertext for the line at addr using its current
// counter.
func (e *Engine) DecryptLine(addr uint64, ciphertext []byte) ([]byte, error) {
	out := make([]byte, e.lineSize)
	if err := e.DecryptLineInto(out, addr, ciphertext); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptLineInto is DecryptLine writing the plaintext into dst (lineSize
// bytes) without allocating. dst must not alias ciphertext.
func (e *Engine) DecryptLineInto(dst []byte, addr uint64, ciphertext []byte) error {
	if len(ciphertext) != e.lineSize {
		return fmt.Errorf("ctr: ciphertext length %d != line size %d", len(ciphertext), e.lineSize)
	}
	e.emit(addr, 1)
	e.padInto(dst, addr, e.Counter(addr))
	xorInto(dst, ciphertext)
	return nil
}

// NoteDecrypt records a decryption of the line at addr whose plaintext the
// owner already knows: the observer sees the event DecryptLineInto emits,
// and no pad is computed.
func (e *Engine) NoteDecrypt(addr uint64) { e.emit(addr, 1) }

// DecryptLineWithCounter decrypts with an explicit counter value. A replayed
// (stale) ciphertext decrypts correctly only with its stale counter; with the
// current counter it produces garbage — the property that makes counters plus
// a tree necessary for replay protection.
func (e *Engine) DecryptLineWithCounter(addr, ctr uint64, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != e.lineSize {
		return nil, fmt.Errorf("ctr: ciphertext length %d != line size %d", len(ciphertext), e.lineSize)
	}
	out := make([]byte, e.lineSize)
	e.padInto(out, addr, ctr)
	xorInto(out, ciphertext)
	return out, nil
}

// xorInto XORs b into dst element-wise.
func xorInto(dst, b []byte) {
	for i := range dst {
		dst[i] ^= b[i]
	}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
