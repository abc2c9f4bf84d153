package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
	"authpoint/internal/workload"
)

// smallPolicies over smallParams' two kernels at short windows make a
// six-cell sweep: enough to exercise the pool without minutes of simulation.
var smallPolicies = []policy.ControlPoint{policy.ThenCommit, policy.ThenIssue}

func smallParams(t *testing.T, names ...string) Params {
	t.Helper()
	if len(names) == 0 {
		names = []string{"gapx", "lucasx"}
	}
	p := Params{Warmup: 4_000, Measure: 12_000}
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("missing workload %s", n)
		}
		p.Workloads = append(p.Workloads, w)
	}
	return p
}

// broken is a workload that fails to assemble, so every cell of it fails.
func broken(name string) workload.Workload {
	return workload.Workload{Name: name, Source: "bogus r1"}
}

// sweepCells runs the sweep and returns the cells its per-cell hook saw.
func sweepCells(t *testing.T, p Params) []CellResult {
	t.Helper()
	var got []CellResult
	p.OnCell = func(c CellResult) { got = append(got, c) }
	if _, err := RunSweep("test", p, smallPolicies, nil); err != nil {
		t.Fatal(err)
	}
	return got
}

// ledgered runs the sweep with records streaming into an in-memory ledger,
// and returns the validated ledger, sorted by seq, and the sweep's error.
func ledgered(t *testing.T, p Params) (*telemetry.LedgerFile, error) {
	t.Helper()
	var buf bytes.Buffer
	l := telemetry.NewLedger(&buf)
	if err := l.WriteHeader(telemetry.NewHeader("ledger-test", p.Sweep.Parallelism)); err != nil {
		t.Fatal(err)
	}
	p.Sweep.Ledger = l
	_, sweepErr := RunSweep("test", p, smallPolicies, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lf, err := telemetry.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Validate(); err != nil {
		t.Fatal(err)
	}
	lf.SortBySeq()
	return lf, sweepErr
}

// TestSweepDeterminism is the golden determinism test: a parallel sweep must
// produce measurements identical in every field — cycle counts, stall
// accounting, secure-memory stats — to a serial one. CI executes this under
// -race, which also makes it the concurrent-sweep race test.
func TestSweepDeterminism(t *testing.T) {
	p := smallParams(t)
	p.Sweep.Parallelism = 1
	serial := sweepCells(t, p)
	p.Sweep.Parallelism = 8
	parallel := sweepCells(t, p)
	want := len(p.Workloads) * (1 + len(smallPolicies))
	if len(serial) != want || len(parallel) != want {
		t.Fatalf("cell counts %d/%d want %d", len(serial), len(parallel), want)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Measurement, parallel[i].Measurement) {
			t.Errorf("cell %d (%s/%v): parallel measurement differs from serial:\nserial:   %+v\nparallel: %+v",
				i, serial[i].Spec.Workload.Name, serial[i].Spec.Config.Policy,
				serial[i].Measurement, parallel[i].Measurement)
		}
	}
}

// TestSweepBaselineMemo verifies the k+1 guarantee: one sweep over k
// policies runs exactly one baseline simulation per workload, and re-running
// the same sweep on the same memo adds zero.
func TestSweepBaselineMemo(t *testing.T) {
	p := smallParams(t)
	p.Sweep.Parallelism = 4
	p.Memo = &harness.Runner{}
	first := sweepCells(t, p)
	if got := p.Memo.BaselineSims(); got != 2 {
		t.Errorf("baseline sims after first sweep: %d want 2", got)
	}
	again := sweepCells(t, p)
	if got := p.Memo.BaselineSims(); got != 2 {
		t.Errorf("baseline sims after repeat sweep: %d want 2 (memo missed)", got)
	}
	for i, c := range again {
		if !c.Spec.Config.ControlPoint().IsBaseline() {
			continue
		}
		if !c.Cached {
			t.Errorf("cell %d: repeat baseline not served from memo", i)
		}
		if !reflect.DeepEqual(first[i].Measurement, c.Measurement) {
			t.Errorf("cell %d: memoized baseline differs from original", i)
		}
	}
}

// failFastSweep runs a sweep whose first workload is broken, on two
// workers, into a ledger, and returns the ledger, the number of cells and
// the sweep's error.
func failFastSweep(t *testing.T) (*telemetry.LedgerFile, int, error) {
	t.Helper()
	p := smallParams(t, "gapx", "lucasx", "swimx")
	p.Workloads = append([]workload.Workload{broken("brokenx")}, p.Workloads...)
	p.Sweep.Parallelism = 2
	lf, err := ledgered(t, p)
	return lf, len(p.Workloads) * (1 + len(smallPolicies)), err
}

// TestSweepFailFast: a broken cell cancels the sweep. The returned error is
// the failing cell's, and every cell still lands in the ledger — failed,
// measured, or explicitly skipped, never silently zero.
func TestSweepFailFast(t *testing.T) {
	lf, cells, err := failFastSweep(t)
	if err == nil {
		t.Fatal("broken cell did not fail the sweep")
	}
	if !strings.HasPrefix(err.Error(), "brokenx ") || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a brokenx cell's failure", err)
	}
	if len(lf.Records) != cells {
		t.Fatalf("ledger has %d records, want one per cell (%d)", len(lf.Records), cells)
	}
	for i, r := range lf.Records {
		switch {
		case r.Workload == "brokenx" && r.Err != "":
		case r.Verdict == telemetry.VerdictSkipped:
		case r.Err == "" && r.SimCycles > 0:
		default:
			t.Errorf("record %d is neither failed, measured nor skipped: %+v", i, r)
		}
	}
}

// TestSweepFailFastSkipsRemaining: the failure stops the feed, so cells
// dispatched after the cancel never run and are recorded as skipped.
func TestSweepFailFastSkipsRemaining(t *testing.T) {
	lf, cells, err := failFastSweep(t)
	if err == nil {
		t.Fatal("broken cell did not fail the sweep")
	}
	skipped := 0
	for _, r := range lf.Records {
		if r.Verdict == telemetry.VerdictSkipped {
			skipped++
		}
	}
	// Both workers start on a broken cell, and each cancels before taking
	// another, so no good cell ever runs.
	if want := cells - 1 - len(smallPolicies); skipped < want {
		t.Errorf("%d skipped records, want at least %d: the failure did not stop the feed", skipped, want)
	}
}

// TestSweepLowestErrorWins: when several cells fail, the sweep reports the
// failure of the lowest-index cell that ran, whichever worker failed first,
// and never the cancellation fallout of the cells it stopped.
func TestSweepLowestErrorWins(t *testing.T) {
	p := Params{Workloads: []workload.Workload{broken("brokenx"), broken("brokeny")}}
	p.Sweep.Parallelism = 4
	lf, err := ledgered(t, p)
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cell failure", err)
	}
	for _, r := range lf.Records {
		if r.Err != "" {
			if want := r.Workload + " " + r.Policy + ": " + r.Err; err.Error() != want {
				t.Fatalf("err = %q, want the lowest failing record's %q", err, want)
			}
			return
		}
	}
	t.Fatal("no failing record in the ledger")
}

// TestSweepExternalCancel: a pre-cancelled context runs nothing.
func TestSweepExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chk, cells := newBench(smallParams(t), smallPolicies, nil)
	chk.fail = func() {}
	rep, err := campaign.Run(ctx, chk, cells, campaign.Sweep{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range rep.Results {
		if !reflect.DeepEqual(r, CellResult{}) {
			t.Errorf("cell %d ran despite cancelled context", i)
		}
	}
}

// TestSweepOnCellOrder: the per-cell hook sees every cell exactly once, in
// input order, even on an 8-worker pool.
func TestSweepOnCellOrder(t *testing.T) {
	p := smallParams(t)
	p.Sweep.Parallelism = 8
	got := sweepCells(t, p)
	var want []string
	for _, w := range p.Workloads {
		for _, pt := range append([]policy.ControlPoint{policy.Baseline}, smallPolicies...) {
			want = append(want, w.Name+" "+pt.String())
		}
	}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d cells, want %d", len(got), len(want))
	}
	for i, c := range got {
		if id := c.Spec.Workload.Name + " " + c.Spec.Config.ControlPoint().String(); id != want[i] {
			t.Errorf("hook call %d saw %s, want %s", i, id, want[i])
		}
	}
}

// TestSweepCollectMetrics: with CollectMetrics on, every cell carries its
// own metrics snapshot — memo hits share their baseline's — and merging the
// sweep's aggregate never folds other cells into one of them.
func TestSweepCollectMetrics(t *testing.T) {
	p := smallParams(t)
	p.Sweep.Parallelism = 2
	p.Sweep.CollectMetrics = true
	p.Memo = &harness.Runner{}
	sweepCells(t, p) // warm the memo, so the second sweep's baselines are hits
	cells := sweepCells(t, p)
	for i, c := range cells {
		if c.Measurement.Metrics == nil {
			t.Fatalf("cell %d (%s/%v) has no metrics snapshot", i, c.Spec.Workload.Name, c.Spec.Config.ControlPoint())
		}
		if c.Spec.Config.ControlPoint().IsBaseline() != c.Cached {
			t.Errorf("cell %d: cached=%v", i, c.Cached)
		}
		alone, err := harness.Measure(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alone.Metrics, c.Measurement.Metrics) {
			t.Errorf("cell %d (%s/%v): snapshot differs from the cell measured alone",
				i, c.Spec.Workload.Name, c.Spec.Config.ControlPoint())
		}
	}
}

// TestSweepEmpty: no workloads, no cells, no rows, no error.
func TestSweepEmpty(t *testing.T) {
	p := Params{OnCell: func(CellResult) { t.Error("hook called on an empty sweep") }}
	sw, err := RunSweep("empty", p, smallPolicies, nil)
	if err != nil || len(sw.Rows) != 0 {
		t.Fatalf("sweep=%+v err=%v", sw, err)
	}
}

// TestLedgerSerialParallelIdentity pins the ledger determinism contract:
// sequence numbers are reserved in cell order before dispatch, so a parallel
// sweep's ledger — re-sorted by seq and with the host-dependent fields
// (host_ns, worker) canonicalized away — is byte-identical to a serial one.
// Each record carries the whole simulation, warmup included, that its
// host_ns paid for.
func TestLedgerSerialParallelIdentity(t *testing.T) {
	p := smallParams(t)
	var cells []CellResult
	p.OnCell = func(c CellResult) { cells = append(cells, c) }
	p.Sweep.Parallelism = 1
	serial, err := ledgered(t, p)
	if err != nil {
		t.Fatal(err)
	}
	p.OnCell = nil
	p.Sweep.Parallelism = 8
	parallel, err := ledgered(t, p)
	if err != nil {
		t.Fatal(err)
	}

	want := len(p.Workloads) * (1 + len(smallPolicies))
	if len(serial.Records) != want || len(parallel.Records) != want {
		t.Fatalf("record counts serial=%d parallel=%d want %d",
			len(serial.Records), len(parallel.Records), want)
	}
	canon := func(lf *telemetry.LedgerFile) []byte {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, r := range lf.Records {
			if err := enc.Encode(r.Canonical()); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	sb, pb := canon(serial), canon(parallel)
	if !bytes.Equal(sb, pb) {
		t.Errorf("canonicalized ledgers differ:\nserial:\n%s\nparallel:\n%s", sb, pb)
	}

	// Seq must follow cell order, and every record must carry the cell's
	// identity and its whole simulation.
	for i, r := range serial.Records {
		c := cells[i]
		if r.Seq != uint64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
		if r.Kind != "bench" || r.Workload != c.Spec.Workload.Name || r.Policy != c.Spec.Config.ControlPoint().String() {
			t.Errorf("record %d: kind %q workload %q policy %q, want bench/%s/%v",
				i, r.Kind, r.Workload, r.Policy, c.Spec.Workload.Name, c.Spec.Config.ControlPoint())
		}
		if r.SimCycles != c.Measurement.Result.Cycles || r.Insts != c.Measurement.Result.Insts {
			t.Errorf("record %d: %d cycles / %d insts, want the whole run's %d / %d",
				i, r.SimCycles, r.Insts, c.Measurement.Result.Cycles, c.Measurement.Result.Insts)
		}
		if r.SimCycles <= c.Measurement.Cycles {
			t.Errorf("record %d: %d cycles do not include the warmup", i, r.SimCycles)
		}
		if r.HostNs <= 0 {
			t.Errorf("record %d has no host cost", i)
		}
	}
}

// TestLedgerRecordsFailures: a failing cell still lands in the ledger with
// its error — the ledger is an account of the campaign, not just its
// successes.
func TestLedgerRecordsFailures(t *testing.T) {
	p := smallParams(t)
	p.Workloads[0] = broken("brokenx")
	p.Sweep.Parallelism = 2
	lf, err := ledgered(t, p)
	if err == nil {
		t.Fatal("broken cell did not fail the sweep")
	}
	if len(lf.Records) == 0 || lf.Records[0].Err == "" {
		t.Fatalf("failing cell's record lost its error: %+v", lf.Records)
	}
}
