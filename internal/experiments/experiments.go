// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the security matrix (Table 2). Each experiment
// returns a structured result and renders the same rows/series the paper
// reports; EXPERIMENTS.md records the comparison against the published
// numbers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"authpoint/internal/attack"
	"authpoint/internal/campaign"
	"authpoint/internal/harness"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/telemetry"
	"authpoint/internal/workload"
)

// Params sets the global sweep knobs.
type Params struct {
	Warmup    uint64
	Measure   uint64
	Workloads []workload.Workload
	// Sweep configures the campaign engine every sweep's cells run on: the
	// worker count, the ledger (one "bench" record per cell), the meter, and
	// CollectMetrics, which attaches a metrics hub to every cell. A resume
	// checkpoint (Done) skips nothing: bench records carry no verdict, so no
	// cell ever counts as done.
	Sweep campaign.Sweep
	// Memo is the baseline memo every sweep shares; nil gives each sweep a
	// fresh one.
	Memo *harness.Runner
	// OnCell, when set, sees every cell of each successful sweep, in cell
	// order, after the sweep has finished.
	OnCell func(CellResult)
}

// DefaultParams covers all 18 kernels at the default windows.
func DefaultParams() Params {
	return Params{
		Warmup:    harness.DefaultWarmup,
		Measure:   harness.DefaultMeasure,
		Workloads: workload.All(),
	}
}

// QuickParams is a fast subset for smoke runs.
func QuickParams() Params {
	names := []string{"mcfx", "twolfx", "gccx", "swimx", "artx", "lucasx"}
	var ws []workload.Workload
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			panic("unknown quick workload " + n)
		}
		ws = append(ws, w)
	}
	return Params{Warmup: 10_000, Measure: 40_000, Workloads: ws}
}

// PerfPolicies is the order the paper plots (Figure 7): five authentication
// control points plus address obfuscation on top of then-commit.
var PerfPolicies = []policy.ControlPoint{
	policy.ThenIssue,
	policy.ThenWrite,
	policy.ThenCommit,
	policy.ThenFetch,
	policy.CommitPlusFetch,
	policy.CommitPlusObfuscation,
}

// IPCRow is one workload's results across control points.
type IPCRow struct {
	Workload string
	FP       bool
	// BaselineIPC is the decrypt-only IPC everything normalizes against.
	BaselineIPC float64
	// IPC maps control point -> absolute measured IPC.
	IPC map[policy.ControlPoint]float64
}

// Normalized returns IPC(policy)/IPC(baseline).
func (r IPCRow) Normalized(p policy.ControlPoint) float64 {
	if r.BaselineIPC == 0 {
		return 0
	}
	return r.IPC[p] / r.BaselineIPC
}

// Sweep is a full normalized-IPC experiment (the Figure 7/10/12 family).
type Sweep struct {
	Title    string
	Policies []policy.ControlPoint
	Rows     []IPCRow
}

// MeanNormalized returns the arithmetic mean of normalized IPC for a control
// point (the paper's "average IPC" statements).
func (s *Sweep) MeanNormalized(p policy.ControlPoint) float64 {
	if len(s.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range s.Rows {
		sum += r.Normalized(p)
	}
	return sum / float64(len(s.Rows))
}

// Variant mutates the machine configuration for a sweep (L2 size, RUU size,
// tree mode, remap cache size...).
type Variant func(*sim.Config)

// CellResult is one finished sweep cell.
type CellResult struct {
	Spec        harness.Spec
	Measurement harness.Measurement
	// Cached marks a baseline served from the memo: its Measurement, Metrics
	// snapshot included, is shared with the cell that ran it.
	Cached bool
	// Wall is the host time the cell took (a memo hit's is the lookup).
	Wall time.Duration
	Err  error
}

// benchCheck is the campaign adapter of a normalized-IPC sweep: kind
// "bench", one cell per (workload, policy), measured by harness.Measure
// behind the baseline memo.
type benchCheck struct {
	memo            *harness.Runner
	workloads       map[string]workload.Workload
	cfg             sim.Config // the sweep's variant; each cell sets Policy
	warmup, measure uint64
	// fail cancels the sweep at its first failing cell.
	fail func()
}

func (benchCheck) Kind() string { return "bench" }

// Runner turns metrics on for every cell when sink is set; a memo hit's
// shared snapshot reaches the sink only once, from the cell that ran it.
func (b benchCheck) Runner(_ []campaign.Cell, sink func(*obs.Snapshot)) func(campaign.Cell) (CellResult, string) {
	return func(c campaign.Cell) (CellResult, string) {
		cfg := b.cfg
		cfg.Policy = c.Policy
		s := harness.Spec{Workload: b.workloads[c.Workload], Config: cfg,
			WarmupInsts: b.warmup, MeasureInsts: b.measure, Metrics: sink != nil}
		start := time.Now()
		m, cached, err := b.memo.Measure(s)
		switch {
		case err != nil:
			b.fail()
		case sink != nil && !cached:
			sink(m.Metrics)
		}
		return CellResult{Spec: s, Measurement: m, Cached: cached, Wall: time.Since(start), Err: err}, ""
	}
}

// Outcome records the cell's whole simulation, warmup included, so the
// record's cycles and its host_ns cover the same work.
func (benchCheck) Outcome(r CellResult) telemetry.Record {
	rec := telemetry.Record{SimCycles: r.Measurement.Result.Cycles, Insts: r.Measurement.Result.Insts, Cached: r.Cached}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

func (benchCheck) IsFinding(string) bool { return false }

// newBench returns a sweep's adapter (without its fail hook) and its cells:
// per workload, the baseline and then each policy.
func newBench(p Params, policies []policy.ControlPoint, variant Variant) (benchCheck, []campaign.Cell) {
	chk := benchCheck{memo: p.Memo, workloads: map[string]workload.Workload{}, cfg: sim.DefaultConfig(),
		warmup: p.Warmup, measure: p.Measure}
	if chk.memo == nil {
		chk.memo = &harness.Runner{}
	}
	if variant != nil {
		variant(&chk.cfg)
	}
	var cells []campaign.Cell
	for _, w := range p.Workloads {
		chk.workloads[w.Name] = w
		cells = append(cells, campaign.Cell{Workload: w.Name, Policy: policy.Baseline})
		for _, pt := range policies {
			cells = append(cells, campaign.Cell{Workload: w.Name, Policy: pt})
		}
	}
	return chk, cells
}

// RunSweep measures every workload under the baseline plus each control
// point, as one campaign.Run over p.Sweep. Rows fold back in cell order, so
// the rendered rows/series are identical to a serial run. The first failing
// cell cancels the sweep (cells not yet started get skipped ledger records)
// and RunSweep returns the lowest-index failure.
func RunSweep(title string, p Params, policies []policy.ControlPoint, variant Variant) (*Sweep, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chk, cells := newBench(p, policies, variant)
	chk.fail = cancel
	rep, err := campaign.Run(ctx, chk, cells, p.Sweep)
	for i, r := range rep.Results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s %v: %w", cells[i].Workload, cells[i].Policy, r.Err)
		}
	}
	if err != nil {
		return nil, err
	}
	if p.OnCell != nil {
		for _, r := range rep.Results {
			p.OnCell(r)
		}
	}
	out := &Sweep{Title: title, Policies: policies}
	res := rep.Results
	for _, w := range p.Workloads {
		row := IPCRow{Workload: w.Name, FP: w.FP, BaselineIPC: res[0].Measurement.IPC, IPC: map[policy.ControlPoint]float64{}}
		for i, pt := range policies {
			row.IPC[pt] = res[1+i].Measurement.IPC
		}
		res = res[1+len(policies):]
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// colWidth sizes a table column to the longest policy name in the set
// (canonical names run up to 30 characters for the paper's combinations,
// longer for deep lattice points).
func colWidth(policies []policy.ControlPoint) int {
	w := 18
	for _, p := range policies {
		if n := len(p.String()); n > w {
			w = n
		}
	}
	return w
}

// Render prints the sweep as a normalized-IPC table.
func (s *Sweep) Render(w io.Writer) {
	cw := colWidth(s.Policies)
	fmt.Fprintf(w, "%s\n", s.Title)
	fmt.Fprintf(w, "%-10s %9s", "workload", "base-IPC")
	for _, sc := range s.Policies {
		fmt.Fprintf(w, " %*s", cw, sc)
	}
	fmt.Fprintln(w)
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-10s %9.3f", r.Workload, r.BaselineIPC)
		for _, sc := range s.Policies {
			fmt.Fprintf(w, " %*.3f", cw, r.Normalized(sc))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s %9s", "MEAN", "")
	for _, sc := range s.Policies {
		fmt.Fprintf(w, " %*.3f", cw, s.MeanNormalized(sc))
	}
	fmt.Fprintln(w)
}

// SpeedupRow is one workload's IPC speedup over authen-then-issue (Figure
// 8/11/13 family).
type SpeedupRow struct {
	Workload string
	Speedup  map[policy.ControlPoint]float64
}

// Speedups derives the Figure 8-style view from a sweep: IPC(policy) /
// IPC(then-issue).
func (s *Sweep) Speedups(policies []policy.ControlPoint) []SpeedupRow {
	var out []SpeedupRow
	for _, r := range s.Rows {
		ref := r.IPC[policy.ThenIssue]
		row := SpeedupRow{Workload: r.Workload, Speedup: map[policy.ControlPoint]float64{}}
		for _, sc := range policies {
			if ref > 0 {
				row.Speedup[sc] = r.IPC[sc] / ref
			}
		}
		out = append(out, row)
	}
	return out
}

// RenderSpeedups prints a Figure 8-style table.
func RenderSpeedups(w io.Writer, title string, rows []SpeedupRow, policies []policy.ControlPoint) {
	cw := colWidth(policies)
	fmt.Fprintf(w, "%s\n%-10s", title, "workload")
	for _, sc := range policies {
		fmt.Fprintf(w, " %*s", cw, sc)
	}
	fmt.Fprintln(w)
	means := map[policy.ControlPoint]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Workload)
		for _, sc := range policies {
			fmt.Fprintf(w, " %*.3f", cw, r.Speedup[sc])
			means[sc] += r.Speedup[sc]
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "MEAN")
	for _, sc := range policies {
		fmt.Fprintf(w, " %*.3f", cw, means[sc]/float64(len(rows)))
	}
	fmt.Fprintln(w)
}

// --- Figure 7 -------------------------------------------------------------

// Fig7 runs one quadrant of Figure 7: normalized IPC of the six control
// points for INT or FP workloads at the given L2 size.
func Fig7(p Params, fp bool, l2B, l2Lat int) (*Sweep, error) {
	var ws []workload.Workload
	for _, w := range p.Workloads {
		if w.FP == fp {
			ws = append(ws, w)
		}
	}
	p.Workloads = ws
	kind := "INT"
	if fp {
		kind = "FP"
	}
	title := fmt.Sprintf("Figure 7: normalized IPC, %s, %dKB L2 (baseline: decryption only)", kind, l2B>>10)
	return RunSweep(title, p, PerfPolicies, func(c *sim.Config) {
		c.Mem.L2B = l2B
		c.Mem.L2Lat = l2Lat
	})
}

// --- Figure 9 -------------------------------------------------------------

// Fig9Point is one re-map cache size's mean normalized IPC.
type Fig9Point struct {
	RemapCacheB int
	PerRow      []IPCRow
	Mean        float64
}

// Fig9 sweeps the address-obfuscation re-map cache size under then-commit +
// obfuscation (paper: IPC improves with re-map cache size).
func Fig9(p Params, sizes []int) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, size := range sizes {
		size := size
		sw, err := RunSweep(
			fmt.Sprintf("Figure 9: obfuscation re-map cache %dKB", size>>10),
			p, []policy.ControlPoint{policy.CommitPlusObfuscation},
			func(c *sim.Config) { c.Sec.RemapCacheB = size },
		)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig9Point{
			RemapCacheB: size,
			PerRow:      sw.Rows,
			Mean:        sw.MeanNormalized(policy.CommitPlusObfuscation),
		})
	}
	return out, nil
}

// RenderFig9 prints the re-map sweep.
func RenderFig9(w io.Writer, pts []Fig9Point) {
	fmt.Fprintln(w, "Figure 9: normalized IPC vs re-map cache size (obfuscation + then-commit)")
	fmt.Fprintf(w, "%-10s", "workload")
	for _, pt := range pts {
		fmt.Fprintf(w, " %10dKB", pt.RemapCacheB>>10)
	}
	fmt.Fprintln(w)
	if len(pts) == 0 {
		return
	}
	for i := range pts[0].PerRow {
		fmt.Fprintf(w, "%-10s", pts[0].PerRow[i].Workload)
		for _, pt := range pts {
			fmt.Fprintf(w, " %12.3f", pt.PerRow[i].Normalized(policy.CommitPlusObfuscation))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "MEAN")
	for _, pt := range pts {
		fmt.Fprintf(w, " %12.3f", pt.Mean)
	}
	fmt.Fprintln(w)
}

// --- Figures 10-13 ---------------------------------------------------------

// Fig10Policies are the four control points of the RUU study.
var Fig10Policies = []policy.ControlPoint{
	policy.ThenIssue, policy.ThenWrite, policy.ThenCommit, policy.CommitPlusFetch,
}

// Fig10 runs the 64-entry RUU sensitivity study.
func Fig10(p Params) (*Sweep, error) {
	return RunSweep("Figure 10: normalized IPC, 64-entry RUU, 256KB L2", p, Fig10Policies,
		func(c *sim.Config) {
			c.Pipeline.RUUSize = 64
			c.Pipeline.LSQSize = 32
		})
}

// Fig12Policies are the five control points of the MAC-tree study.
var Fig12Policies = []policy.ControlPoint{
	policy.ThenIssue, policy.ThenWrite, policy.ThenCommit,
	policy.ThenFetch, policy.CommitPlusFetch,
}

// Fig12 runs the MAC-tree (CHTree-style) authentication study. The baseline
// stays decryption-only, as in the paper. Tree-mode runs simulate several
// times more cycles per instruction, so the windows are scaled down to keep
// the sweep tractable; normalized IPC is a ratio and stabilizes quickly.
func Fig12(p Params) (*Sweep, error) {
	p.Warmup = p.Warmup/2 + 1
	p.Measure = p.Measure/3 + 1
	return RunSweep("Figure 12: normalized IPC under MAC-tree authentication", p, Fig12Policies,
		func(c *sim.Config) { c.Sec.UseTree = true })
}

// --- Table 2 ----------------------------------------------------------------

// Table2Row is one control point's demonstrated security properties.
type Table2Row struct {
	Policy policy.ControlPoint
	// PreventsFetchLeak: the pointer-conversion exploit failed to disclose
	// the secret through fetch addresses.
	PreventsFetchLeak bool
	// PreciseException: the I/O-port disclosing kernel could not retire its
	// OUT (no unverified instruction changed architectural state).
	PreciseException bool
	// AuthenticatedMemory: tainted data never persisted to external memory.
	AuthenticatedMemory bool
	// AuthenticatedProcessor: same witness as PreciseException (retirement
	// of unverified results).
	AuthenticatedProcessor bool
	// Detected: the tampering raised a security exception at all.
	Detected bool
}

// Table2Policies are the paper's five rows.
var Table2Policies = []policy.ControlPoint{
	policy.ThenIssue,
	policy.ThenWrite,
	policy.ThenCommit,
	policy.CommitPlusFetch,
	policy.CommitPlusObfuscation,
}

// Table2 demonstrates every cell of the characteristics matrix by running
// the exploit suite against each control point. Each control point is one
// campaign cell (its exploit runs build their own machines), swept on the
// campaign worker pool; rows come back in policy order.
func Table2() ([]Table2Row, error) {
	cells := make([]campaign.Cell, len(Table2Policies))
	for i, pt := range Table2Policies {
		cells[i] = campaign.Cell{Policy: pt}
	}
	rep, err := campaign.Run(context.Background(), table2Check{}, cells, campaign.Sweep{})
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(cells))
	for i, r := range rep.Results {
		if r.err != nil {
			return nil, r.err
		}
		rows[i] = r.row
	}
	return rows, nil
}

// table2Check is the campaign adapter of Table 2: kind "table2", one cell
// per control point, checked by the exploit suite.
type table2Check struct{}

// table2Result is one control point's row, or the exploit run's error.
type table2Result struct {
	row Table2Row
	err error
}

func (table2Check) Kind() string { return "table2" }

func (table2Check) Runner([]campaign.Cell, func(*obs.Snapshot)) func(campaign.Cell) (table2Result, string) {
	return func(c campaign.Cell) (table2Result, string) {
		row, err := table2Row(c.Policy)
		return table2Result{row, err}, ""
	}
}

func (table2Check) Outcome(r table2Result) telemetry.Record {
	var rec telemetry.Record
	if r.err != nil {
		rec.Err = r.err.Error()
	}
	return rec
}

func (table2Check) IsFinding(string) bool { return false }

// table2Row runs the exploit suite against one control point.
func table2Row(pt policy.ControlPoint) (Table2Row, error) {
	pc, err := attack.PointerConversion(pt)
	if err != nil {
		return Table2Row{}, err
	}
	io_, err := attack.IOPortDisclosure(pt)
	if err != nil {
		return Table2Row{}, err
	}
	mt, err := attack.MemoryTaint(pt)
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Policy:                 pt,
		PreventsFetchLeak:      !pc.Leaked,
		PreciseException:       !io_.Leaked && io_.Detected,
		AuthenticatedMemory:    !mt.Leaked,
		AuthenticatedProcessor: !io_.Leaked && io_.Detected,
		Detected:               pc.Detected,
	}, nil
}

// RenderTable2 prints the matrix in the paper's layout.
func RenderTable2(w io.Writer, rows []Table2Row) {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	fmt.Fprintln(w, "Table 2: characteristics comparison (every cell demonstrated by running the exploit suite)")
	fmt.Fprintf(w, "%-30s %12s %10s %10s %10s\n", "", "prevent-leak", "precise-ex", "auth-mem", "auth-proc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12s %10s %10s %10s\n", r.Policy,
			mark(r.PreventsFetchLeak), mark(r.PreciseException),
			mark(r.AuthenticatedMemory), mark(r.AuthenticatedProcessor))
	}
}
