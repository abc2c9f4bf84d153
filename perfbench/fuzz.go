package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"authpoint/internal/campaign"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
)

// fuzzProg is one generated program.
type fuzzProg struct {
	seed int64
	src  string
}

// fuzzCell is one differential check: a program under one policy, plain or
// tampered at the site its seed selects.
type fuzzCell struct {
	prog   *fuzzProg
	policy policy.ControlPoint
	tamper bool
	site   diffcheck.TamperSite
}

// Program seeds. Each benchmark seed owns a disjoint block of generator
// seeds; the pinned programs sit below every block.
const (
	fuzzSeedBlock  = 1_000_000
	resumeSeedBase = fuzzSeedBlock / 2
	pinPrograms    = 4
)

// fuzzProgramsPerSecond sizes fuzz-cross's pool: programs generated per
// measured second, each worth 54 cells. Two workers on a 2-vCPU host finish
// about four programs a second, so the pool covers a tenfold speed-up
// before it runs dry.
const fuzzProgramsPerSecond = 50

// genPrograms generates n programs from consecutive generator seeds.
func genPrograms(first int64, n int) []fuzzProg {
	out := make([]fuzzProg, n)
	for i := range out {
		s := first + int64(i)
		out[i] = fuzzProg{seed: s, src: diffcheck.GenProgram(s)}
	}
	return out
}

// crossCells is the cross product authfuzz -mode cross -tamper runs, program
// by program: every policy plain, then every policy tampered. The tamper
// site rotates with the program seed over every site.
func crossCells(progs []fuzzProg, pols []policy.ControlPoint) []fuzzCell {
	sites := diffcheck.Sites()
	out := make([]fuzzCell, 0, len(progs)*len(pols)*2)
	for i := range progs {
		p := &progs[i]
		site := sites[int(uint64(p.seed)%uint64(len(sites)))]
		for _, tamper := range []bool{false, true} {
			for _, pt := range pols {
				c := fuzzCell{prog: p, policy: pt, tamper: tamper}
				if tamper {
					c.site = site
				}
				out = append(out, c)
			}
		}
	}
	return out
}

func (c fuzzCell) options(store *campaign.Store, memo *diffcheck.OracleMemo) diffcheck.Options {
	return diffcheck.Options{Policy: c.policy, Tamper: c.tamper, TamperSite: c.site, Cache: store, Oracle: memo}
}

// fuzzOutcome renders a check result and applies the gate: divergence and
// error verdicts fail.
func fuzzOutcome(c fuzzCell, r diffcheck.Result) outcome {
	o := outcome{
		line: fmt.Sprintf("fuzz seed=%d policy=%s tamper=%v site=%s verdict=%s reason=%s cycles=%d insts=%d oracle=%s sim=%s div=%q",
			c.prog.seed, c.policy, c.tamper, r.Site, r.Verdict, r.Reason, r.Cycles, r.Insts, r.OracleDigest, r.SimDigest, r.Divergence),
		cycles: r.Cycles,
	}
	if diffcheck.IsFinding(r.Verdict) {
		o.fail = fmt.Sprintf("seed %d under %v tamper=%v site=%s: %s: %s", c.prog.seed, c.policy, c.tamper, r.Site, r.Verdict, r.Divergence)
	}
	return o
}

// openStore opens an empty result store at dir.
func openStore(dir string) (*campaign.Store, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return campaign.Open(dir)
}

// fuzzPins are the pinned programs whose results must digest to the
// expectation, whatever the benchmark seed.
func fuzzPins(e *env) []fuzzProg {
	n := pinPrograms
	if e.tiny {
		n = 1
	}
	return genPrograms(1, n)
}

// fuzzPinName is the expectation the pinned programs' digest is checked
// against.
func fuzzPinName(e *env) string {
	if e.tiny {
		return "fuzz-pin-tiny"
	}
	return "fuzz-pin"
}

// runFresh checks cells on the worker pool against an empty store and a
// fresh oracle memo, the way a cold cross campaign runs them.
func runFresh(e *env, cells []fuzzCell, dir string) ([]outcome, error) {
	store, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	memo := diffcheck.NewOracleMemo(0)
	outs := make([]outcome, len(cells))
	forEach(e.workers, len(cells), func(i int) {
		c := cells[i]
		outs[i] = fuzzOutcome(c, diffcheck.Check(c.prog.src, c.options(store, memo)))
	})
	if err := store.Err(); err != nil {
		return nil, err
	}
	return outs, os.RemoveAll(dir)
}

// checkFresh gates fresh outcomes and digests them against name.
func checkFresh(e *env, name string, outs []outcome) []string {
	var problems []string
	lines := make([]string, len(outs))
	for i, o := range outs {
		if o.fail != "" {
			problems = append(problems, o.fail)
		}
		lines[i] = o.line
	}
	return append(problems, checkDigest(e, name, digestLines(lines))...)
}

// --- fuzz-cross ---------------------------------------------------------------

// fuzzCross checks freshly generated programs in cross mode against a cold
// result store: every cell misses, simulates, and writes its result.
type fuzzCross struct {
	e     *env
	cells []fuzzCell
	dir   string
	store *campaign.Store
	memo  *diffcheck.OracleMemo
}

func setupFuzzCross(e *env) (instance, error) {
	n := int(math.Ceil(e.seconds * fuzzProgramsPerSecond))
	if e.tiny {
		n = 1
	}
	f := &fuzzCross{
		e:     e,
		cells: crossCells(genPrograms(e.seed*fuzzSeedBlock+1, n), policy.Lattice()),
		dir:   filepath.Join(e.dir, "store"),
	}
	return f, f.resetTrace()
}

func (f *fuzzCross) resetTrace() error {
	store, err := openStore(f.dir)
	if err != nil {
		return err
	}
	f.store, f.memo = store, diffcheck.NewOracleMemo(0)
	return nil
}

func (f *fuzzCross) pick(i int) (int, bool) { return i, i < len(f.cells) }
func (f *fuzzCross) minDraws() int          { return 1 }

// round is one program's cells.
func (f *fuzzCross) round() int { return 2 * len(policy.Lattice()) }

func (f *fuzzCross) run(i int) outcome {
	c := f.cells[i]
	var r diffcheck.Result
	ns := timed(func() { r = diffcheck.Check(c.prog.src, c.options(f.store, f.memo)) })
	o := fuzzOutcome(c, r)
	o.ns = ns
	if r.Cached && o.fail == "" {
		o.fail = fmt.Sprintf("seed %d under %v: served from a cold store", c.prog.seed, c.policy)
	}
	return o
}

func (f *fuzzCross) finish(lines map[int]string) (int, []string) {
	var problems []string
	if len(lines) == len(f.cells) {
		fmt.Fprintf(f.e.out, "fuzz-cross: the program pool ran dry before the deadline; raise fuzzProgramsPerSecond\n")
	}
	if err := f.store.Err(); err != nil {
		problems = append(problems, "store: "+err.Error())
	}
	pins := crossCells(fuzzPins(f.e), policy.Lattice())
	pinOuts, err := runFresh(f.e, pins, filepath.Join(f.e.dir, "pin-store"))
	if err != nil {
		return len(pins), append(problems, "pinned cells: "+err.Error())
	}
	return len(pins), append(problems, checkFresh(f.e, fuzzPinName(f.e), pinOuts)...)
}

// sample is the first two programs' cells.
func (f *fuzzCross) sample() []int {
	n := 2 * 2 * len(policy.Lattice())
	if n > len(f.cells) {
		n = len(f.cells)
	}
	return seq(n)
}

func (f *fuzzCross) traceCell(t *tracer, i int) outcome {
	c := f.cells[i]
	var r diffcheck.Result
	root := t.span(-1, "diffcheck.Check", func() { r = diffcheck.Check(c.prog.src, c.options(f.store, f.memo)) })
	replayFuzz(t, root, c, r, t.store)
	return fuzzOutcome(c, r)
}

// --- fuzz-resume ---------------------------------------------------------------

// fuzzResume serves cross-mode cells from a result store that set-up warmed:
// every check must come back cached and equal to the fresh result.
type fuzzResume struct {
	e     *env
	cells []fuzzCell
	// fresh holds each cell's result as set-up computed it.
	fresh    []diffcheck.Result
	store    *campaign.Store
	memo     *diffcheck.OracleMemo
	problems []string
}

// resumePrograms is the number of seed-derived programs warmed next to the
// pinned ones.
const resumePrograms = 4

func setupFuzzResume(e *env) (instance, error) {
	progs := fuzzPins(e)
	n := resumePrograms
	if e.tiny {
		n = 1
	}
	progs = append(progs, genPrograms(e.seed*fuzzSeedBlock+resumeSeedBase, n)...)
	f := &fuzzResume{e: e, cells: crossCells(progs, policy.Lattice()), memo: diffcheck.NewOracleMemo(0)}
	store, err := openStore(filepath.Join(e.dir, "store"))
	if err != nil {
		return nil, err
	}
	f.store = store
	f.fresh = make([]diffcheck.Result, len(f.cells))
	outs := make([]outcome, len(f.cells))
	forEach(e.workers, len(f.cells), func(i int) {
		c := f.cells[i]
		f.fresh[i] = diffcheck.Check(c.prog.src, c.options(store, f.memo))
		outs[i] = fuzzOutcome(c, f.fresh[i])
	})
	if err := store.Err(); err != nil {
		return nil, err
	}
	pins := len(policy.Lattice()) * 2 * len(fuzzPins(e))
	f.problems = checkFresh(e, fuzzPinName(e), outs[:pins])
	for _, o := range outs[pins:] {
		if o.fail != "" {
			f.problems = append(f.problems, o.fail)
		}
	}
	return f, nil
}

func (f *fuzzResume) resetTrace() error      { return nil }
func (f *fuzzResume) pick(i int) (int, bool) { return i % len(f.cells), true }
func (f *fuzzResume) minDraws() int          { return len(f.cells) }
func (f *fuzzResume) round() int             { return len(f.cells) }
func (f *fuzzResume) sample() []int          { return seq(len(f.cells)) }
func (f *fuzzResume) finish(map[int]string) (int, []string) {
	if err := f.store.Err(); err != nil {
		return 0, append(f.problems, "store: "+err.Error())
	}
	return 0, f.problems
}

func (f *fuzzResume) run(i int) outcome {
	c := f.cells[i]
	var r diffcheck.Result
	ns := timed(func() { r = diffcheck.Check(c.prog.src, c.options(f.store, f.memo)) })
	o := f.served(i, c, r)
	o.ns = ns
	return o
}

// served gates a result the warm store served: it must be a hit and equal
// the fresh result. The comparison is structural, so the outcome carries no
// result line.
func (f *fuzzResume) served(i int, c fuzzCell, r diffcheck.Result) outcome {
	o := outcome{cycles: r.Cycles}
	fresh := f.fresh[i]
	fresh.Cached = true
	if !r.Cached || r != fresh {
		o.fail = fmt.Sprintf("seed %d under %v tamper=%v: served %s, fresh %s",
			c.prog.seed, c.policy, c.tamper, fuzzOutcome(c, r).line, fuzzOutcome(c, f.fresh[i]).line)
	}
	return o
}

func (f *fuzzResume) traceCell(t *tracer, i int) outcome {
	c := f.cells[i]
	var r diffcheck.Result
	root := t.span(-1, "diffcheck.Check", func() { r = diffcheck.Check(c.prog.src, c.options(f.store, f.memo)) })
	replayFuzz(t, root, c, r, f.store)
	return f.served(i, c, r)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
