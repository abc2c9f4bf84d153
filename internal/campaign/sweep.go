package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"authpoint/internal/harness"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

// Cell is one unit of campaign work: the generated program for Seed checked
// under Policy, optionally with one tampered line at Site.
type Cell struct {
	Seed   int64
	Policy policy.ControlPoint
	Tamper bool
	// Site is the tamper site of a tamper cell, always explicit (the ledger
	// and resume join on it); empty for untampered cells.
	Site string
}

// ID is the cell's identity in a campaign of the given kind: the fields its
// ledger record carries, and the join key against a resume checkpoint.
func (c Cell) ID(kind string) CellID {
	return CellID{Kind: kind, Policy: c.Policy.String(), Seed: c.Seed, Tamper: c.Tamper, Site: c.Site}
}

// Cells lays seeds over policies. Mode "pair" runs seed i under
// policies[i mod n] — every seed checked once, every policy exercised
// continuously, the CI smoke shape; "cross" runs every seed under every
// policy.
func Cells(mode string, seeds []int64, pols []policy.ControlPoint) ([]Cell, error) {
	var out []Cell
	switch mode {
	case "pair":
		for i, s := range seeds {
			out = append(out, Cell{Seed: s, Policy: pols[i%len(pols)]})
		}
	case "cross":
		for _, s := range seeds {
			for _, p := range pols {
				out = append(out, Cell{Seed: s, Policy: p})
			}
		}
	default:
		return nil, fmt.Errorf("mode %q: want pair or cross", mode)
	}
	return out, nil
}

// Tampered returns a copy of cells with every cell tampered at site.
func Tampered(cells []Cell, site string) []Cell {
	out := make([]Cell, len(cells))
	for i, c := range cells {
		c.Tamper, c.Site = true, site
		out[i] = c
	}
	return out
}

// Check adapts one per-cell checker (the differential fuzzer, the two-run
// contract verifier) to the campaign engine. R is the checker's result type;
// its zero value stands for a cell that never ran.
type Check[R any] interface {
	// Kind labels the campaign's ledger records and resume identities.
	Kind() string
	// Runner prepares one sweep over cells and returns its per-cell check,
	// which yields the result and the checked program's source. sink, when
	// non-nil, must receive every timed run's metrics snapshot; the check
	// calls it concurrently.
	Runner(cells []Cell, sink func(*obs.Snapshot)) func(Cell) (R, string)
	// Outcome renders a result's outcome fields as a ledger record: Verdict
	// (empty for a cell that never ran), SimCycles, Insts and Cached.
	Outcome(R) telemetry.Record
	// IsFinding reports whether a verdict is a finding.
	IsFinding(verdict string) bool
}

// Sweep configures one campaign run; every field is optional.
type Sweep struct {
	// Parallelism is the worker count (<= 0 means NumCPU).
	Parallelism int
	// Ledger receives one record per cell, sequence-numbered in cell order,
	// including explicit "skipped" records for cells the budget never ran.
	Ledger *telemetry.Ledger
	// Meter is fed one tick per finished cell.
	Meter *telemetry.Meter
	// CollectMetrics merges every timed run's observability snapshot into
	// Report.Metrics.
	CollectMetrics bool
	// Done, when non-nil, is a resume checkpoint from LoadCompleted: Run
	// sweeps only the cells it does not record as done (see Resume).
	Done map[CellID]string
}

// Finding is a cell whose check came back as a finding, with the program
// that provoked it.
type Finding[R any] struct {
	Cell   Cell
	Result R
	Source string
}

// Report is the outcome of Run.
type Report[R any] struct {
	// Cells are the cells swept — after resume subtraction — and Results
	// their results in the same order (zero for cells never run).
	Cells   []Cell
	Results []R
	// Findings are sorted by (seed, policy, tamper, site).
	Findings []Finding[R]
	// Total counts the cells before resume subtraction; Resumed of them the
	// checkpoint already recorded as done, PriorFindings of those as
	// findings.
	Total, Resumed, PriorFindings int
	// Metrics is the merged snapshot (nil unless CollectMetrics was set and
	// a timed run finished).
	Metrics *obs.Snapshot
}

// Resume splits cells against a checkpoint's completed set: pending cells
// have no terminal record and still need a run; redo cells completed with a
// finding verdict. The union of the checkpoint and a sweep over pending
// covers every cell exactly once.
func Resume(kind string, cells []Cell, done map[CellID]string, isFinding func(string) bool) (pending, redo []Cell) {
	pending = make([]Cell, 0, len(cells))
	for _, c := range cells {
		v, ok := done[c.ID(kind)]
		switch {
		case !ok:
			pending = append(pending, c)
		case isFinding(v):
			redo = append(redo, c)
		}
	}
	return pending, redo
}

// Run checks every cell on the harness worker pool. Cells the context never
// reached are left zero in Report.Results, and the context's error is
// returned so callers can tell "clean" from "clean so far, budget
// exhausted". With a resume checkpoint, done cells are not swept again and
// prior finding cells are re-checked outside the ledger, so the report's
// finding set matches an uninterrupted campaign's.
func Run[R any](ctx context.Context, chk Check[R], cells []Cell, sw Sweep) (Report[R], error) {
	kind := chk.Kind()
	rep := Report[R]{Cells: cells, Total: len(cells)}
	var redo []Cell
	if sw.Done != nil {
		rep.Cells, redo = Resume(kind, cells, sw.Done, chk.IsFinding)
		rep.Resumed, rep.PriorFindings = len(cells)-len(rep.Cells), len(redo)
	}
	cells = rep.Cells

	var m merger
	var sink func(*obs.Snapshot)
	if sw.CollectMetrics {
		sink = m.add
	}
	check := chk.Runner(cells, sink)
	var seqBase uint64
	if sw.Ledger != nil {
		seqBase = sw.Ledger.ReserveSeq(len(cells))
	}
	record := func(seq int, c Cell, rec telemetry.Record) telemetry.Record {
		id := c.ID(kind)
		rec.Seq, rec.Kind, rec.Policy, rec.Seed, rec.Tamper, rec.Site =
			seqBase+uint64(seq), id.Kind, id.Policy, id.Seed, id.Tamper, id.Site
		return rec
	}

	rep.Results = make([]R, len(cells))
	ran := make([]bool, len(cells))
	var mu sync.Mutex
	runner := &harness.Runner{Parallelism: sw.Parallelism, Meter: sw.Meter}
	err := runner.Do(ctx, len(cells), func(ctx context.Context, i int) error {
		if ctx.Err() != nil {
			return nil // budget expired while queued: leave the cell empty
		}
		c := cells[i]
		start := time.Now()
		res, src := check(c)
		rep.Results[i], ran[i] = res, true
		out := chk.Outcome(res)
		if sw.Ledger != nil {
			out.HostNs = time.Since(start).Nanoseconds()
			out.Worker = telemetry.Worker(ctx)
			sw.Ledger.Emit(record(i, c, out))
		}
		if chk.IsFinding(out.Verdict) {
			mu.Lock()
			rep.Findings = append(rep.Findings, Finding[R]{Cell: c, Result: res, Source: src})
			mu.Unlock()
		}
		return nil
	})
	// Cells the budget (or a fail-fast cancel) never ran get explicit skipped
	// records: without them a budget-expired ledger has silent sequence
	// holes, indistinguishable from a truncated file, and resume could not
	// tell skipped from done.
	if sw.Ledger != nil {
		for i, c := range cells {
			if !ran[i] {
				sw.Ledger.Emit(record(i, c, telemetry.Record{Verdict: telemetry.VerdictSkipped}))
			}
		}
	}

	if len(redo) > 0 {
		again := chk.Runner(redo, nil)
		for _, c := range redo {
			if res, src := again(c); chk.IsFinding(chk.Outcome(res).Verdict) {
				rep.Findings = append(rep.Findings, Finding[R]{Cell: c, Result: res, Source: src})
			}
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i].Cell, rep.Findings[j].Cell
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if pa, pb := a.Policy.String(), b.Policy.String(); pa != pb {
			return pa < pb
		}
		if a.Tamper != b.Tamper {
			return !a.Tamper
		}
		return a.Site < b.Site
	})
	rep.Metrics = m.snapshot()
	return rep, err
}

// SeedsRepeat reports whether any seed appears in more than one cell — the
// campaign shape under which per-seed memoization pays for itself.
func SeedsRepeat(cells []Cell) bool {
	seen := make(map[int64]bool, len(cells))
	for _, c := range cells {
		if seen[c.Seed] {
			return true
		}
		seen[c.Seed] = true
	}
	return false
}

// merger folds per-run metrics snapshots into one campaign aggregate; safe
// for concurrent use.
type merger struct {
	mu     sync.Mutex
	merged *obs.Snapshot
}

func (m *merger) add(snap *obs.Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.merged == nil {
		m.merged = snap
		return
	}
	// Merge only errors on histogram bucket-bound mismatches, which cannot
	// happen here: every run uses the Hub's fixed bucket sets.
	_ = m.merged.Merge(snap)
}

func (m *merger) snapshot() *obs.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.merged
}
