package diffcheck_test

import (
	"context"
	"sync/atomic"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/contract"
	"authpoint/internal/diffcheck"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

// killAfter wraps a campaign check with a kill switch: the sweep's context is
// cancelled once n cells have finished.
type killAfter[R any] struct {
	campaign.Check[R]
	n      int64
	cancel context.CancelFunc
}

func (k killAfter[R]) Runner(cells []campaign.Cell, sink func(*obs.Snapshot)) func(campaign.Cell) (R, string) {
	run := k.Check.Runner(cells, sink)
	var finished atomic.Int64
	return func(c campaign.Cell) (R, string) {
		res, src := run(c)
		if finished.Add(1) == k.n {
			k.cancel()
		}
		return res, src
	}
}

// TestSweepKillResumeUnion is the end-to-end checkpoint/resume invariant, for
// both campaign adapters: a campaign killed mid-flight and resumed from its
// ledger covers, across the union of both ledgers, every cell exactly once —
// with per-cell records identical to an uninterrupted run's.
func TestSweepKillResumeUnion(t *testing.T) {
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenCommit}
	cells, err := campaign.Cells("cross", []int64{1, 2, 3, 4, 5}, pols)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fuzz", func(t *testing.T) { killResumeUnion[diffcheck.Result](t, diffcheck.Campaign{}, cells) })
	t.Run("verify", func(t *testing.T) { killResumeUnion[contract.Result](t, contract.Campaign{}, cells) })
}

// sweepWithLedger runs one sweep writing a checkpoint ledger to path,
// cancelling it after the killAfterN-th finished cell when killAfterN > 0.
func sweepWithLedger[R any](t *testing.T, path string, chk campaign.Check[R], cells []campaign.Cell, killAfterN int64, done map[campaign.CellID]string) campaign.Report[R] {
	t.Helper()
	l, err := telemetry.Create(path, telemetry.NewHeader("test", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if killAfterN > 0 {
		chk = killAfter[R]{Check: chk, n: killAfterN, cancel: cancel}
	}
	rep, _ := campaign.Run(ctx, chk, cells, campaign.Sweep{Parallelism: 1, Ledger: l, Done: done})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rep
}

func killResumeUnion[R any](t *testing.T, chk campaign.Check[R], cells []campaign.Cell) {
	dir := t.TempDir()

	// Run 1: killed after 4 cells. The ledger must still record every cell —
	// terminal verdicts for the ones that ran, explicit skips for the rest.
	first := dir + "/first.jsonl"
	rep1 := sweepWithLedger(t, first, chk, cells, 4, nil)
	if len(rep1.Findings) != 0 {
		t.Fatalf("unexpected findings in run 1: %d", len(rep1.Findings))
	}
	ran := 0
	for _, r := range rep1.Results {
		if chk.Outcome(r).Verdict != "" {
			ran++
		}
	}
	if ran == 0 || ran == len(cells) {
		t.Fatalf("kill switch did not interrupt the sweep: %d/%d cells ran", ran, len(cells))
	}
	lf1, err := telemetry.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf1.Validate(); err != nil {
		t.Fatalf("interrupted ledger is not a valid checkpoint: %v", err)
	}
	if len(lf1.Records) != len(cells) {
		t.Fatalf("interrupted ledger has %d records, want one per cell (%d)", len(lf1.Records), len(cells))
	}

	// Resume: the engine subtracts the checkpoint's completed cells and
	// sweeps the rest.
	done, err := campaign.LoadCompleted(first, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != ran {
		t.Fatalf("checkpoint records %d completed cells, want %d", len(done), ran)
	}
	pending, _ := campaign.Resume(chk.Kind(), cells, done, chk.IsFinding)
	if len(pending) != len(cells)-ran {
		t.Fatalf("resume selected %d pending cells, want %d", len(pending), len(cells)-ran)
	}
	second := dir + "/second.jsonl"
	rep2 := sweepWithLedger(t, second, chk, cells, 0, done)
	if len(rep2.Findings) != 0 {
		t.Fatalf("unexpected findings in run 2: %d", len(rep2.Findings))
	}
	if rep2.Resumed != ran || len(rep2.Cells) != len(pending) {
		t.Fatalf("resumed sweep skipped %d and ran %d cells, want %d and %d",
			rep2.Resumed, len(rep2.Cells), ran, len(pending))
	}

	// The union of terminal records across both ledgers covers every cell
	// exactly once.
	lf2, err := telemetry.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	union := map[campaign.CellID]telemetry.Record{}
	for _, lf := range []*telemetry.LedgerFile{lf1, lf2} {
		for _, r := range lf.Records {
			if r.Verdict == "" || r.Verdict == telemetry.VerdictSkipped {
				continue
			}
			id := campaign.CellID{Kind: r.Kind, Policy: r.Policy, Seed: r.Seed, Tamper: r.Tamper, Site: r.Site}
			if _, dup := union[id]; dup {
				t.Fatalf("cell %+v recorded by both runs", id)
			}
			union[id] = r
		}
	}
	if len(union) != len(cells) {
		t.Fatalf("union covers %d cells, want %d", len(union), len(cells))
	}

	// And each union record matches the uninterrupted campaign's, field for
	// field, once host-dependent fields (and the seq renumbering) are shed.
	full := dir + "/full.jsonl"
	sweepWithLedger(t, full, chk, cells, 0, nil)
	lf3, err := telemetry.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lf3.Records {
		id := campaign.CellID{Kind: r.Kind, Policy: r.Policy, Seed: r.Seed, Tamper: r.Tamper, Site: r.Site}
		got, ok := union[id]
		if !ok {
			t.Fatalf("cell %+v missing from the resumed union", id)
		}
		want := r.Canonical()
		got = got.Canonical()
		want.Seq, got.Seq = 0, 0
		if got != want {
			t.Fatalf("cell %+v: resumed record %+v != uninterrupted %+v", id, got, want)
		}
	}
}
