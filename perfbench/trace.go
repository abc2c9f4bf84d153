package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"authpoint/internal/analysis"
	"authpoint/internal/asm"
	"authpoint/internal/bus"
	"authpoint/internal/campaign"
	"authpoint/internal/contract"
	"authpoint/internal/cryptoengine/aes"
	"authpoint/internal/cryptoengine/ctr"
	"authpoint/internal/cryptoengine/hmac"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/cryptoengine/pacmac"
	"authpoint/internal/cryptoengine/sha256"
	"authpoint/internal/diffcheck"
	"authpoint/internal/harness"
	"authpoint/internal/interp"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// span is one timed call. The spans of a cell share its cell index; a
// cell's root span times the workload's entry point, and its children time
// the public calls the entry point makes, replayed one by one after it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ns() int64 { return s.End - s.Start }

// oracleKey identifies one oracle run the way diffcheck.OracleMemo does.
type oracleKey struct {
	src  string
	mode pacmac.Mode
}

// tracer keeps spans in memory and sums the program's own counters over the
// replayed machine runs. The traced pass is serial; tracer is not safe for
// concurrent use.
type tracer struct {
	// t0 is the thread CPU clock when tracing began; spans are stamped
	// in CPU time of the traced thread.
	t0    time.Duration
	cell  int
	spans []span
	// oracles mirrors the oracle memo: a replayed fuzz cell runs the
	// oracle only for the first check of its program and pac mode.
	oracles map[oracleKey]bool
	// store receives replayed fuzz results; it starts empty, so replayed
	// lookups miss the way a cold campaign's do.
	store *campaign.Store

	cycles, uopHits, uopLookups, skipCycles, fetches, authRequests uint64
	// mismatches lists replays whose results differ from the entry point's.
	mismatches []string
}

func (t *tracer) span(parent int, name string, f func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: t.cell, Name: name, Start: (threadCPU() - t.t0).Nanoseconds()})
	f()
	t.spans[id].End = (threadCPU() - t.t0).Nanoseconds()
	return id
}

// addRun folds one replayed machine run's counters in.
func (t *tracer) addRun(res sim.Result, perf *obs.Perf) {
	t.cycles += res.Cycles
	t.fetches += res.Sec.Fetches
	t.authRequests += res.Sec.AuthRequests
	t.uopHits += perf.UopHits
	t.uopLookups += perf.UopHits + perf.UopMisses + perf.UopNoCache
	t.skipCycles += perf.SkipCycles
}

func (t *tracer) mismatch(format string, args ...any) {
	t.mismatches = append(t.mismatches, fmt.Sprintf("cell %d: ", t.cell)+fmt.Sprintf(format, args...))
}

// --- fuzz replay ---------------------------------------------------------------

// Mirrors of diffcheck's check parameters for a cell with default options.
const (
	// tamperMaxInsts is the instruction bound of tampered timed runs.
	tamperMaxInsts = 100_000
	// tamperMask is the bit a tamper flips.
	tamperMask = 0x40
)

// fuzzKey mirrors the result-cache key diffcheck.Check derives for a cell.
func fuzzKey(c fuzzCell) campaign.Key {
	k := campaign.Key{
		Check:      diffcheck.CheckSchema,
		Kind:       "fuzz",
		ProgDigest: campaign.Digest([]byte(c.prog.src)),
		Policy:     c.policy.Normalize().String(),
		Options:    fmt.Sprintf("max_oracle=%d watchdog=%d", diffcheck.DefaultMaxOracleInsts, 0),
	}
	if c.tamper {
		k.Tamper, k.Site = true, string(c.site)
	}
	return k
}

// pacMode is the oracle's pointer-authentication mode under a policy.
func pacMode(pt policy.ControlPoint) pacmac.Mode {
	switch k := pt.Knobs(); {
	case k.PACFault:
		return pacmac.ModeFaultAuth
	case k.PAC:
		return pacmac.ModePoison
	}
	return pacmac.ModeOff
}

// replayFuzz replays the public calls diffcheck.Check makes for one cell:
// the store lookup, and on a miss assembly, the oracle, machine
// construction, the tamper, the run, the state digest and the store write.
// store is where the lookup goes: the warm store for a served cell, the
// tracer's empty store otherwise.
func replayFuzz(t *tracer, root int, c fuzzCell, want diffcheck.Result, store *campaign.Store) {
	key := fuzzKey(c)
	var (
		got diffcheck.Result
		hit bool
	)
	t.span(root, "campaign.Store.Get", func() { hit, _ = store.Get(key, &got) })
	if hit != want.Cached {
		t.mismatch("replayed lookup hit=%v, entry point cached=%v", hit, want.Cached)
		return
	}
	if hit {
		return
	}
	var (
		p   *asm.Program
		err error
	)
	t.span(root, "asm.Assemble", func() { p, err = asm.Assemble(c.prog.src) })
	if err != nil {
		t.mismatch("assemble: %v", err)
		return
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = c.policy
	if c.tamper {
		cfg.MaxInsts = tamperMaxInsts
		cfg.TraceBus = c.site == diffcheck.SiteData
		cfg.Sec.UseTree = cfg.Sec.UseTree || c.site == diffcheck.SiteTree
	}
	var ranges []interp.MemRange
	if len(p.Data) > 0 {
		ranges = append(ranges, interp.MemRange{Start: p.DataBase, Len: uint64(len(p.Data))})
	}
	ranges = append(ranges, interp.MemRange{Start: sim.StackBase, Len: cfg.StackB})
	mode := pacMode(c.policy)
	if k := (oracleKey{c.prog.src, mode}); !t.oracles[k] {
		t.oracles[k] = true
		t.span(root, "interp.oracle", func() {
			o := interp.New(p)
			o.PACMode = mode
			o.Run(diffcheck.DefaultMaxOracleInsts)
			o.StateDigest(ranges...)
		})
	}
	var m *sim.Machine
	t.span(root, "sim.NewMachine", func() { m, err = sim.NewMachine(cfg, p) })
	if err != nil {
		t.mismatch("machine: %v", err)
		return
	}
	if c.tamper {
		tamperMachine(m, p, c.site)
	}
	perf := m.EnablePerf()
	var res sim.Result
	t.span(root, "sim.Machine.Run", func() { res, _ = m.Run() })
	t.addRun(res, perf)
	t.span(root, "sim.Machine.ArchDigest", func() { m.ArchDigest(ranges...) })
	t.span(root, "campaign.Store.Put", func() { _ = store.Put(key, want) })
	if res.Cycles != want.Cycles || res.Insts != want.Insts {
		t.mismatch("replayed run %d cycles %d insts, entry point %d cycles %d insts", res.Cycles, res.Insts, want.Cycles, want.Insts)
	}
}

// tamperMachine flips one bit at the site the way diffcheck's tamper mode
// does.
func tamperMachine(m *sim.Machine, p *asm.Program, site diffcheck.TamperSite) {
	entryLine := p.Entry &^ 63
	mask := []byte{tamperMask}
	switch site {
	case diffcheck.SiteData:
		m.Memory.XorRange(p.DataBase, mask)
	case diffcheck.SiteMac:
		if a, ok := m.Ctrl.MacAddrOf(entryLine); ok {
			m.Ctrl.Memory().XorRange(a, mask)
		}
	case diffcheck.SiteCtr:
		e := m.Ctrl.Encryptor()
		e.SetCounter(entryLine, e.Counter(entryLine)+1)
	case diffcheck.SiteTree:
		if idx, ok := m.Ctrl.LeafIndex(entryLine); ok {
			m.Ctrl.Tree().TamperNode(mactree.NodeID{Level: 0, Index: idx}, mask)
		}
	default:
		m.Memory.XorRange(p.Entry, mask)
	}
}

// --- contract replay -----------------------------------------------------------

// observeCycles mirrors the contract package's observation window for
// kernels built on the non-halting victim.
const observeCycles = 200_000

// busCollector records bus transactions, as the two-run check's adversary
// does.
type busCollector struct{ events []obs.Event }

func (c *busCollector) Emit(e obs.Event) {
	if e.Kind == obs.EvBusTxn {
		c.events = append(c.events, e)
	}
}

// replayKernel replays the public calls contract.CheckKernel makes: contract
// derivation, then machine construction and a run for each of the two
// secret images, then the view comparison.
func replayKernel(t *tracer, root int, c verifyCell, want contract.Result) {
	kc := c.kc
	var (
		ct  *contract.Contract
		err error
	)
	t.span(root, "contract.Derive", func() { ct, err = contract.Derive(kc.Prog, c.policy, kc.Analysis) })
	if err != nil {
		t.mismatch("derive: %v", err)
		return
	}
	target, ok := secretRange(kc.Prog, ct.SecretRanges)
	if !ok {
		t.mismatch("kernel %s has no secret range in its data segment", kc.Name)
		return
	}
	n := target.End - target.Start
	if n > 8 {
		n = 8
	}
	off := target.Start - kc.Prog.DataBase
	var word [8]byte
	copy(word[:n], kc.Prog.Data[off:])
	a := append([]byte(nil), word[:n]...)
	binary.LittleEndian.PutUint64(word[:], binary.LittleEndian.Uint64(word[:])^kc.Mask)
	b := append([]byte(nil), word[:n]...)

	cfg := sim.DefaultConfig()
	cfg.Policy = c.policy
	if kc.ObserveWatchdog {
		cfg.WatchdogCycles = observeCycles
	}
	obfuscated := c.policy.Normalize().Obfuscate
	var views [2]contract.View
	for k, img := range [][]byte{a, b} {
		q := *kc.Prog
		q.Data = append([]byte(nil), kc.Prog.Data...)
		copy(q.Data[off:], img)
		var m *sim.Machine
		t.span(root, "sim.NewMachineWithRegions", func() { m, err = sim.NewMachineWithRegions(cfg, &q, kc.Regions) })
		if err != nil {
			t.mismatch("machine: %v", err)
			return
		}
		col := &busCollector{}
		m.Bus.SetObserver(col)
		perf := m.EnablePerf()
		var res sim.Result
		t.span(root, "sim.Machine.Run", func() { res, _ = m.Run() })
		t.addRun(res, perf)
		views[k] = contract.View{Cycles: res.Cycles, Reason: res.Reason.String()}
		stop := sim.StopCycle(res)
		for _, e := range col.events {
			if e.Cycle > stop {
				continue
			}
			ev := contract.ViewEvent{Cycle: e.Cycle, Addr: e.Addr, Kind: bus.Kind(e.A), Done: e.B}
			if obfuscated {
				ev.Addr = 0
			}
			views[k].Events = append(views[k].Events, ev)
		}
	}
	t.span(root, "contract.DiffViews", func() { contract.DiffViews(views[0], views[1]) })
	if views[0].Cycles != want.CyclesA || views[1].Cycles != want.CyclesB {
		t.mismatch("replayed runs %d/%d cycles, entry point %d/%d", views[0].Cycles, views[1].Cycles, want.CyclesA, want.CyclesB)
	}
}

// secretRange is the first secret range lying inside the data segment.
func secretRange(p *asm.Program, ranges []analysis.Range) (analysis.Range, bool) {
	end := p.DataBase + uint64(len(p.Data))
	for _, r := range ranges {
		if r.Start >= p.DataBase && r.End <= end && r.End > r.Start {
			return r, true
		}
	}
	return analysis.Range{}, false
}

// --- harness replay ------------------------------------------------------------

// replayMeasure replays the public calls harness.Measure makes: machine
// construction, the warm-up run, and the measured run. The program was
// assembled at set-up, as the harness's image cache holds it.
func replayMeasure(t *tracer, root int, c paperCell, want harness.Measurement) {
	warm := c.spec.WarmupInsts + c.spec.Workload.InitInsts
	cfg := c.spec.Config
	cfg.MaxInsts = warm
	var (
		m   *sim.Machine
		err error
	)
	t.span(root, "sim.NewMachine", func() { m, err = sim.NewMachine(cfg, c.prog) })
	if err != nil {
		t.mismatch("machine: %v", err)
		return
	}
	perf := m.EnablePerf()
	var res sim.Result
	t.span(root, "sim.Machine.Run", func() { res, _ = m.Run() })
	m.MS.ResetCacheStats()
	m.Cfg.MaxInsts = warm + c.spec.MeasureInsts
	t.span(root, "sim.Machine.Run", func() { res, _ = m.Run() })
	t.addRun(res, perf)
	if res.Cycles != want.Result.Cycles || res.Insts != want.Result.Insts {
		t.mismatch("replayed run %d cycles %d insts, entry point %d cycles %d insts", res.Cycles, res.Insts, want.Result.Cycles, want.Result.Insts)
	}
}

// --- the traced run ------------------------------------------------------------

// cacheHolder is an instance whose entry point uses an oracle memo and a
// result store.
type cacheHolder interface {
	caches() (*diffcheck.OracleMemo, *campaign.Store)
}

func (f *fuzzCross) caches() (*diffcheck.OracleMemo, *campaign.Store)  { return f.memo, f.store }
func (f *fuzzResume) caches() (*diffcheck.OracleMemo, *campaign.Store) { return f.memo, f.store }

// cacheCounts snapshots the memo and store counters.
type cacheCounts struct{ memoHits, memoMisses, storeHits, storeMisses float64 }

func countCaches(inst instance) cacheCounts {
	h, ok := inst.(cacheHolder)
	if !ok {
		return cacheCounts{}
	}
	memo, store := h.caches()
	return cacheCounts{float64(memo.Hits()), float64(memo.Misses()), float64(store.Hits()), float64(store.Misses())}
}

// traceRun sets the workload up once, runs its fixed sample untraced and
// then traced, and reports per-layer metrics.
func traceRun(e *env, w bench) (report, error) {
	// Spans and layer timings are CPU time of this thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	inst, err := w.setup(e)
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	sample := inst.sample()
	var problems []string
	gate := func(o outcome) {
		if o.fail != "" {
			problems = append(problems, o.fail)
		}
	}

	// The untraced pass gives trace.overhead's base and the entry point's
	// own memo and store counts: the replay adds lookups of its own.
	if err := inst.resetTrace(); err != nil {
		return report{}, err
	}
	before := countCaches(inst)
	start := threadCPU()
	for _, c := range sample {
		gate(inst.run(c))
	}
	untraced := float64(len(sample)) / (threadCPU() - start).Seconds()
	after := countCaches(inst)

	if err := inst.resetTrace(); err != nil {
		return report{}, err
	}
	store, err := openStore(filepath.Join(e.dir, "replay-store"))
	if err != nil {
		return report{}, err
	}
	t := &tracer{t0: threadCPU(), oracles: map[oracleKey]bool{}, store: store}
	start = threadCPU()
	for _, c := range sample {
		t.cell = c
		gate(inst.traceCell(t, c))
	}
	traced := float64(len(sample)) / (threadCPU() - start).Seconds()

	metrics := t.layerMetrics(w.entry, len(sample))
	ratio := func(name, base string, hits, lookups float64) {
		metrics[base] = metric{lookups, "count"}
		metrics[name] = metric{safeDiv(hits, lookups), "ratio"}
	}
	memoHits := after.memoHits - before.memoHits
	ratio("diffcheck.oracle_memo_hit_ratio", "diffcheck.oracle_memo_lookups", memoHits, memoHits+after.memoMisses-before.memoMisses)
	storeHits := after.storeHits - before.storeHits
	ratio("campaign.hit_ratio", "campaign.lookups", storeHits, storeHits+after.storeMisses-before.storeMisses)
	metrics["trace.overhead"] = metric{traced / untraced, "ratio"}
	metrics["trace.replay_mismatches"] = metric{float64(len(t.mismatches)), "count"}
	for k, v := range cryptoTimings() {
		metrics[k] = metric{v, "ns"}
	}
	getUs, putUs, err := campaignTimings(filepath.Join(e.dir, "layer-store"))
	if err != nil {
		return report{}, err
	}
	metrics["campaign.get_us"] = metric{getUs, "us"}
	metrics["campaign.put_us"] = metric{putUs, "us"}

	for _, m := range t.mismatches {
		fmt.Fprintf(e.out, "%s replay mismatch: %s\n", w.name, m)
	}
	fmt.Fprintf(e.out, "%s traced %d sample cells: %.4g cells/s untraced, %.4g cells/s traced\n", w.name, len(sample), untraced, traced)
	t.printShares(e, w)
	if err := t.write(filepath.Join(e.work, "spans-"+w.name+".json")); err != nil {
		return report{}, err
	}
	return finishReport(e, w.name, metrics, 2*len(sample), problems), nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durations groups the span durations by name and sums the time of root
// and of child spans. Every child's parent is a root, so the entry points'
// unattributed time is rootNs - childNs.
func (t *tracer) durations() (by map[string][]float64, rootNs, childNs float64) {
	by = map[string][]float64{}
	for _, s := range t.spans {
		d := float64(s.ns())
		by[s.Name] = append(by[s.Name], d)
		if s.Parent < 0 {
			rootNs += d
		} else {
			childNs += d
		}
	}
	return by, rootNs, childNs
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// layerMetrics derives the per-layer metrics from the spans and counters.
// A layer the workload never calls reports 0.
func (t *tracer) layerMetrics(entry string, cells int) map[string]metric {
	by, rootNs, childNs := t.durations()
	p50 := func(names ...string) float64 {
		var v []float64
		for _, n := range names {
			v = append(v, by[n]...)
		}
		if len(v) == 0 {
			return 0
		}
		return median(v)
	}
	share := func(names ...string) float64 {
		var ns float64
		for _, n := range names {
			ns += sum(by[n])
		}
		return safeDiv(ns, rootNs)
	}
	m := map[string]metric{
		"asm.assemble_us":           {p50("asm.Assemble") / 1e3, "us"},
		"interp.oracle_us":          {p50("interp.oracle") / 1e3, "us"},
		"sim.new_machine_ms":        {p50("sim.NewMachine", "sim.NewMachineWithRegions") / 1e6, "ms"},
		"sim.setup_share":           {share("sim.NewMachine", "sim.NewMachineWithRegions"), "ratio"},
		"sim.run_share":             {share("sim.Machine.Run"), "ratio"},
		"sim.run_ns_per_cycle":      {safeDiv(sum(by["sim.Machine.Run"]), float64(t.cycles)), "ns/cycle"},
		"sim.arch_digest_us":        {p50("sim.Machine.ArchDigest") / 1e3, "us"},
		"sim.cycles":                {float64(t.cycles), "count"},
		"sim.skip_cycle_ratio":      {safeDiv(float64(t.skipCycles), float64(t.cycles)), "ratio"},
		"pipeline.uop_lookups":      {float64(t.uopLookups), "count"},
		"pipeline.uop_hit_ratio":    {safeDiv(float64(t.uopHits), float64(t.uopLookups)), "ratio"},
		"secmem.fetches":            {float64(t.fetches) / float64(cells), "count/cell"},
		"secmem.auth_requests":      {float64(t.authRequests) / float64(cells), "count/cell"},
		"contract.derive_ms":        {p50("contract.Derive") / 1e6, "ms"},
		"contract.check_kernel_ms":  {p50("contract.CheckKernel") / 1e6, "ms"},
		"harness.measure_ms":        {p50("harness.Measure") / 1e6, "ms"},
		"campaign.get_share":        {share("campaign.Store.Get"), "ratio"},
		"diffcheck.unattributed_ms": {0, "ms"},
		"contract.unattributed_ms":  {0, "ms"},
		"harness.unattributed_ms":   {0, "ms"},
	}
	pkg := entry[:strings.IndexByte(entry, '.')]
	m[pkg+".unattributed_ms"] = metric{(rootNs - childNs) / float64(cells) / 1e6, "ms"}
	return m
}

// printShares prints each span name's calls, total time and share of the
// entry point's time; the entry point's own row is its unattributed
// remainder.
func (t *tracer) printShares(e *env, w bench) {
	by, rootNs, childNs := t.durations()
	names := make([]string, 0, len(by))
	ns := map[string]float64{}
	for name, v := range by {
		names = append(names, name)
		ns[name] = sum(v)
	}
	ns[w.entry] = rootNs - childNs
	sort.Slice(names, func(i, j int) bool { return ns[names[i]] > ns[names[j]] })
	fmt.Fprintf(e.out, "%s layer shares of %.1f ms in %s:\n", w.name, rootNs/1e6, w.entry)
	for _, name := range names {
		label := name
		if name == w.entry {
			label += " (unattributed)"
		}
		fmt.Fprintf(e.out, "%s   %-40s %7d calls %10.2f ms %6.1f%%\n", w.name, label, len(by[name]), ns[name]/1e6, 100*safeDiv(ns[name], rootNs))
	}
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- fixed-input layer timings -------------------------------------------------

// Sinks keep the compiler from dropping timed calls.
var (
	sinkMac   [hmac.Size]byte
	sinkBlock [sha256.Size]byte
)

// perOpNs times n calls of f in each of several batches and returns the
// median per-call CPU time.
func perOpNs(n int, f func()) float64 {
	const batches = 15
	v := make([]float64, batches)
	for b := range v {
		start := threadCPU()
		for i := 0; i < n; i++ {
			f()
		}
		v[b] = float64((threadCPU() - start).Nanoseconds()) / float64(n)
	}
	return median(v)
}

// cryptoTimings times the four crypto primitives on fixed inputs: HMAC over
// an 80-byte line message, CTR encryption of one 64-byte line, one AES
// block, and one SHA-256 block.
func cryptoTimings() map[string]float64 {
	key := make([]byte, 32)
	msg := make([]byte, 80)
	line := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(i)
	}
	copy(line, msg)
	for i := range key {
		key[i] = byte(0xa0 + i)
	}
	engine, err := ctr.NewEngine(key, len(line))
	if err != nil {
		panic(err) // fixed valid key and line size
	}
	dst := make([]byte, len(line))
	cipher := aes.MustNew(key)
	block := make([]byte, aes.BlockSize)
	return map[string]float64{
		"cryptoengine.hmac_line_ns": perOpNs(2000, func() { sinkMac = hmac.Mac(key, msg) }),
		"cryptoengine.ctr_line_ns": perOpNs(2000, func() {
			if err := engine.EncryptLineInto(dst, 0x1000, line); err != nil {
				panic(err)
			}
		}),
		"cryptoengine.aes_block_ns":    perOpNs(10000, func() { cipher.Encrypt(block, block) }),
		"cryptoengine.sha256_block_ns": perOpNs(10000, func() { sinkBlock = sha256.Sum256(msg[:55]) }),
	}
}

// campaignTimings puts and then gets a realistic diffcheck result under
// distinct keys in an empty store, returning the median µs of each. These
// two are wall time, unlike every other timing, so that time a store call
// spends blocked on the disk shows.
func campaignTimings(dir string) (getUs, putUs float64, err error) {
	store, err := openStore(dir)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	payload := diffcheck.Check(diffcheck.GenProgram(1), diffcheck.Options{Policy: policy.ThenCommit})
	const n = 200
	keys := make([]campaign.Key, n)
	for i := range keys {
		keys[i] = campaign.Key{Check: diffcheck.CheckSchema, Kind: "fuzz", ProgDigest: campaign.Digest([]byte(strconv.Itoa(i))),
			Policy: payload.Policy.String(), Options: "benchmark"}
	}
	puts := make([]float64, n)
	for i, k := range keys {
		start := time.Now()
		err := store.Put(k, payload)
		puts[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		if err != nil {
			return 0, 0, err
		}
	}
	gets := make([]float64, n)
	for i, k := range keys {
		var r diffcheck.Result
		start := time.Now()
		ok, err := store.Get(k, &r)
		gets[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		if err != nil || !ok || r.SimDigest != payload.SimDigest {
			return 0, 0, fmt.Errorf("campaign store: entry %d did not read back (ok=%v err=%v)", i, ok, err)
		}
	}
	return median(gets), median(puts), nil
}
