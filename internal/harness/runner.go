package harness

import (
	"sync"
	"sync/atomic"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// Runner is a sweep's baseline memo: it measures cells like Measure but runs
// each distinct decrypt-only baseline at most once, so a k-policy normalized
// sweep costs k+1 simulations per workload instead of 2k, and identical
// configs across experiments share baselines. Cells are independent (each
// builds its own sim.Machine); the only state shared between concurrent
// callers is the read-only assembled program image (see TestProgramImmutable
// in internal/sim) and the memo. The zero value is ready to use.
type Runner struct {
	// baselines is keyed on (workload, config with the control point forced
	// to baseline, windows, metrics).
	baselines sync.Map // baseKey -> *memoEntry

	baselineSims atomic.Int64
}

type baseKey struct {
	w               workload.Workload
	cfg             sim.Config
	warmup, measure uint64
	metrics         bool
}

type memoEntry struct {
	once sync.Once
	m    Measurement
	err  error
}

// BaselineSims returns how many baseline simulations this runner has
// actually executed (memo hits excluded) — the observable for the k+1
// measurement guarantee.
func (r *Runner) BaselineSims() int64 { return r.baselineSims.Load() }

// Measure runs one cell, serving a decrypt-only baseline from the memo. The
// cached flag is true when the baseline measurement already existed; it is
// then shared, Metrics snapshot included, with the cell that ran it.
func (r *Runner) Measure(s Spec) (m Measurement, cached bool, err error) {
	if !s.Config.ControlPoint().IsBaseline() {
		m, err = Measure(s)
		return m, false, err
	}
	// Zero the policy so every baseline spelling lands on the same memo
	// entry.
	s.Config.Policy = policy.Baseline
	key := baseKey{w: s.Workload, cfg: s.Config, warmup: s.WarmupInsts, measure: s.MeasureInsts,
		metrics: s.Metrics}
	// Normalize defaulted windows so explicit-default and zero specs share
	// an entry (Measure applies the same defaulting).
	if key.warmup == 0 {
		key.warmup = DefaultWarmup
	}
	if key.measure == 0 {
		key.measure = DefaultMeasure
	}
	e, _ := r.baselines.LoadOrStore(key, &memoEntry{})
	ent := e.(*memoEntry)
	ran := false
	ent.once.Do(func() {
		ran = true
		r.baselineSims.Add(1)
		ent.m, ent.err = Measure(s)
	})
	return ent.m, !ran, ent.err
}

// --- assembled-image cache -------------------------------------------------

// imageEntry memoizes one source's assembly.
type imageEntry struct {
	once sync.Once
	prog *asm.Program
	err  error
}

// images caches assembled programs by source text, so each of the catalog's
// sources is assembled once per process instead of once per sweep cell. The
// cached *asm.Program is shared read-only across machines — safe because
// sim.NewMachine only reads it: the loader seals the image into the
// machine's external memory and copies it into its plaintext shadow, and no
// machine writes back through it (pinned by TestProgramImmutable in
// internal/sim).
var images sync.Map // string -> *imageEntry

// assembleCached returns the shared assembled image for src.
func assembleCached(src string) (*asm.Program, error) {
	e, _ := images.LoadOrStore(src, &imageEntry{})
	ent := e.(*imageEntry)
	ent.once.Do(func() { ent.prog, ent.err = asm.Assemble(src) })
	return ent.prog, ent.err
}
