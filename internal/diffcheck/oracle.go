package diffcheck

import (
	"bytes"
	"crypto/sha256"
	"sync"

	"authpoint/internal/asm"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/interp"
	"authpoint/internal/isa"
)

// oracleState is an immutable snapshot of one in-order oracle run: everything
// the differential comparison reads — stop behaviour, committed count, both
// register files, the OUT log, the fault description, the digest windows'
// final bytes, and the canonical state digest. Snapshots are safe to share
// across workers (unlike *interp.Machine, whose memory reads mutate a
// one-entry page cache), which is what makes the oracle leg memoizable.
type oracleState struct {
	stop      interp.StopReason
	insts     uint64
	regs      [isa.NumIntRegs]uint64
	fregs     [isa.NumFPRegs]uint64
	outs      []interp.OutEvent
	faultKind string
	faultAddr uint64
	ranges    []interp.MemRange
	mem       []window // one snapshot per range, same order
	digest    [32]byte
}

// window is the final contents of one digest range with its zero ends
// trimmed: lead zero bytes, then b, then zeroes to the range's end. A memo
// holds up to DefaultOracleMemoCap snapshots and the stack range is mostly
// untouched zeroes, so trimming keeps each entry to the bytes a program
// actually wrote.
type window struct {
	lead uint64
	b    []byte
}

func trimWindow(b []byte) window {
	lo := len(b) - len(bytes.TrimLeft(b, "\x00"))
	b = bytes.TrimRight(b[lo:], "\x00")
	return window{lead: uint64(lo), b: bytes.Clone(b)}
}

// runOracle executes the in-order oracle on p and snapshots the outcome over
// the given digest windows. maxInsts bounds the run; a StopMaxInsts snapshot
// carries no digest or memory (the check errors out before using them).
func runOracle(p *asm.Program, mode pacmac.Mode, maxInsts uint64, ranges []interp.MemRange) *oracleState {
	o := interp.New(p)
	o.PACMode = mode
	st := &oracleState{stop: o.Run(maxInsts), ranges: ranges}
	st.insts = o.Insts
	st.regs = o.Regs
	st.fregs = o.FRegs
	st.outs = append([]interp.OutEvent(nil), o.Outs...)
	st.faultKind, st.faultAddr, _ = o.Fault()
	if st.stop != interp.StopMaxInsts {
		st.digest = o.StateDigest(ranges...)
		for _, r := range ranges {
			st.mem = append(st.mem, trimWindow(o.Mem.Read(r.Start, int(r.Len))))
		}
	}
	return st
}

// readUint mirrors mem.Memory.ReadUint (n-byte little-endian) over a
// snapshot window, reading zero bytes past the captured range like the
// sparse memory reads zero for untouched pages.
func (st *oracleState) readUint(ri int, off uint64, n int) uint64 {
	var v uint64
	w := st.mem[ri]
	for i := 0; i < n; i++ {
		if idx := off + uint64(i); idx >= w.lead && idx-w.lead < uint64(len(w.b)) {
			v |= uint64(w.b[idx-w.lead]) << (8 * i)
		}
	}
	return v
}

// oracleKey addresses one memoizable oracle run. The oracle leg is
// policy-independent except for the architectural pointer-authentication
// mode, so a -mode cross campaign pays it once per (seed, pac-mode) instead
// of once per (seed × policy).
type oracleKey struct {
	prog     [32]byte // SHA-256 of the source text
	mode     pacmac.Mode
	maxInsts uint64
}

// oracleEntry is one memo slot; ready closes when st is set (singleflight:
// concurrent workers on the same seed wait instead of re-running).
type oracleEntry struct {
	ready chan struct{}
	st    *oracleState
}

// OracleMemo memoizes in-order oracle runs across differential checks.
// Sweeps share one memo across all cells; entries are evicted
// oldest-inserted-first past the cap, which matches the seed-major cell
// order of cross campaigns (all policies of a seed are adjacent). The memo
// only serves checks with default digest windows (Options.Mutate unset) —
// Check bypasses it otherwise. Safe for concurrent use.
type OracleMemo struct {
	mu     sync.Mutex
	max    int
	m      map[oracleKey]*oracleEntry
	fifo   []oracleKey
	hits   uint64
	misses uint64
}

// DefaultOracleMemoCap bounds the memo: entries hold the data-segment and
// stack snapshots of one run, so ~128 in-flight seeds is a few MB.
const DefaultOracleMemoCap = 128

// NewOracleMemo builds a memo holding at most cap entries (<=0 means
// DefaultOracleMemoCap).
func NewOracleMemo(cap int) *OracleMemo {
	if cap <= 0 {
		cap = DefaultOracleMemoCap
	}
	return &OracleMemo{max: cap, m: make(map[oracleKey]*oracleEntry)}
}

// Hits and Misses report the memo's lifetime lookup counts. A hit is any
// check that avoided an oracle run, including waiters on an in-flight run.
func (om *OracleMemo) Hits() uint64 {
	om.mu.Lock()
	defer om.mu.Unlock()
	return om.hits
}

func (om *OracleMemo) Misses() uint64 {
	om.mu.Lock()
	defer om.mu.Unlock()
	return om.misses
}

// run returns the memoized oracle state for (src, mode, maxInsts), running
// the oracle at most once per key even under concurrent lookups.
func (om *OracleMemo) run(src string, p *asm.Program, mode pacmac.Mode, maxInsts uint64, ranges []interp.MemRange) *oracleState {
	key := oracleKey{prog: sha256.Sum256([]byte(src)), mode: mode, maxInsts: maxInsts}
	om.mu.Lock()
	if e, ok := om.m[key]; ok {
		om.hits++
		om.mu.Unlock()
		<-e.ready
		return e.st
	}
	om.misses++
	e := &oracleEntry{ready: make(chan struct{})}
	om.m[key] = e
	om.fifo = append(om.fifo, key)
	for len(om.fifo) > om.max {
		// Evict the oldest key. In-flight evictees are fine: waiters hold the
		// entry pointer, only the map forgets it.
		delete(om.m, om.fifo[0])
		om.fifo = om.fifo[1:]
	}
	om.mu.Unlock()

	e.st = runOracle(p, mode, maxInsts, ranges)
	close(e.ready)
	return e.st
}
