package diffcheck

import (
	"bytes"
	"sync"
	"sync/atomic"

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

// assembled is one memoized assembly of a source.
type assembled struct {
	p   *asm.Program
	err error
}

// OracleMemo memoizes, across differential checks, the assembled program of
// each source and the in-order oracle runs. Sweeps share one memo across
// all cells, so every cell of a program runs on one immutable *asm.Program
// (sharing is safe: sim.TestProgramImmutable pins that no machine writes
// it). Entries are evicted oldest-inserted-first past the cap, which
// matches the seed-major cell order of cross campaigns (all policies of a
// seed are adjacent): only the programs in flight need to stay, so at most
// memoPrograms of them do. Oracle runs are only memoized for checks with
// default digest windows (Options.Mutate unset) — Check bypasses that half
// otherwise. Safe for concurrent use.
type OracleMemo struct {
	mu      sync.Mutex
	progs   fifoMemo[[32]byte, assembled]
	oracles fifoMemo[oracleKey, *oracleState]
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// DefaultOracleMemoCap bounds the memo: entries hold the data-segment and
// stack snapshots of one run, so ~128 in-flight seeds is a few MB.
const DefaultOracleMemoCap = 128

// memoPrograms bounds the assembled programs a memo keeps: a cross campaign
// has one program in flight per worker, and a program evicted early is
// only assembled again.
const memoPrograms = 16

// NewOracleMemo builds a memo holding at most cap oracle runs (<=0 means
// DefaultOracleMemoCap) and at most min(cap, memoPrograms) programs.
func NewOracleMemo(cap int) *OracleMemo {
	if cap <= 0 {
		cap = DefaultOracleMemoCap
	}
	return &OracleMemo{progs: fifoMemo[[32]byte, assembled]{max: min(cap, memoPrograms)},
		oracles: fifoMemo[oracleKey, *oracleState]{max: cap}}
}

// Hits and Misses report the memo's lifetime oracle lookup counts. A hit is
// any check that avoided an oracle run, including waiters on an in-flight
// run.
func (om *OracleMemo) Hits() uint64 { return om.hits.Load() }

func (om *OracleMemo) Misses() uint64 { return om.misses.Load() }

// assemble returns the memoized assembly of src, whose SHA-256 is sum,
// assembling it at most once per source even under concurrent lookups.
func (om *OracleMemo) assemble(sum [32]byte, src string) (*asm.Program, error) {
	a, _ := om.progs.get(om, sum, func() assembled {
		p, err := asm.Assemble(src)
		return assembled{p, err}
	})
	return a.p, a.err
}

// run returns the memoized oracle state for (the source with SHA-256 sum,
// mode, maxInsts), running the oracle at most once per key even under
// concurrent lookups.
func (om *OracleMemo) run(sum [32]byte, p *asm.Program, mode pacmac.Mode, maxInsts uint64, ranges []interp.MemRange) *oracleState {
	st, hit := om.oracles.get(om, oracleKey{prog: sum, mode: mode, maxInsts: maxInsts}, func() *oracleState {
		return runOracle(p, mode, maxInsts, ranges)
	})
	if hit {
		om.hits.Add(1)
	} else {
		om.misses.Add(1)
	}
	return st
}

// fifoMemo is one table of an OracleMemo, holding at most max entries,
// guarded by the memo's mutex.
type fifoMemo[K comparable, V any] struct {
	max  int
	m    map[K]*memoEntry[V]
	fifo []K
}

// memoEntry is one memo slot; ready closes when v is set (singleflight:
// concurrent workers on the same key wait instead of computing it again).
type memoEntry[V any] struct {
	ready chan struct{}
	v     V
}

// get returns the value for k, calling fill to compute it on the first
// lookup only, and reports whether it was there already.
func (f *fifoMemo[K, V]) get(om *OracleMemo, k K, fill func() V) (V, bool) {
	om.mu.Lock()
	if e, ok := f.m[k]; ok {
		om.mu.Unlock()
		<-e.ready
		return e.v, true
	}
	if f.m == nil {
		f.m = make(map[K]*memoEntry[V])
	}
	e := &memoEntry[V]{ready: make(chan struct{})}
	f.m[k] = e
	f.fifo = append(f.fifo, k)
	for len(f.fifo) > f.max {
		// Evict the oldest key. In-flight evictees are fine: waiters hold the
		// entry pointer, only the map forgets it.
		delete(f.m, f.fifo[0])
		f.fifo = f.fifo[1:]
	}
	om.mu.Unlock()

	e.v = fill()
	close(e.ready)
	return e.v, false
}
