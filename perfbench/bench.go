package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// env is what a workload's set-up and cells see of the invocation.
type env struct {
	config
	// dir is this run's scratch directory, emptied before and after the run.
	dir string
	out io.Writer
}

// outcome is one cell's checked result.
type outcome struct {
	// line renders the cell's identity and result for the result digest:
	// cell, verdict, simulated cycles and instructions, state digests.
	line string
	// cycles is the number of simulated cycles the result covers.
	cycles uint64
	// fail is non-empty when the result fails the correctness gate.
	fail string
	// ns is the CPU time of the entry-point call.
	ns int64
}

// timed runs f and returns the CPU time it used, in ns. The caller's
// goroutine must be locked to its thread.
func timed(f func()) int64 {
	start := threadCPU()
	f()
	return (threadCPU() - start).Nanoseconds()
}

// instance is one set-up workload.
type instance interface {
	// pick maps the measured loop's i-th draw to a cell; ok is false when
	// the workload has no further cells.
	pick(i int) (cell int, ok bool)
	// minDraws is the number of draws that run whatever the deadline: one
	// full round, for workloads whose digest covers a round.
	minDraws() int
	// round is the number of draws the measured loop completes together.
	round() int
	// run executes one cell through the workload's entry point.
	run(cell int) outcome
	// finish checks the first result line of every cell the measured loop
	// ran (and runs any untimed pinned cells); it returns the cells it ran
	// itself and every failure found.
	finish(lines map[int]string) (extra int, problems []string)
	// sample is the fixed cell sample the traced run replays.
	sample() []int
	// resetTrace prepares the instance for a pass over the sample.
	resetTrace() error
	// traceCell runs one cell through its entry point inside a root span,
	// then replays the public calls the entry point makes as child spans.
	traceCell(t *tracer, cell int) outcome
}

// bench is one benchmark workload.
type bench struct {
	name string
	// entry is the span name of the workload's entry point.
	entry string
	// tailPct is the reported tail percentile. At least ten cells lie
	// beyond it at this size, and it falls inside a dense cluster of cell
	// times rather than on a cluster's edge or among rare outliers, where
	// it would swing between runs: fuzz-cross's p95 is the middle of its
	// tree-site tamper cells, a tenth of all cells; verify-kernels' p95 is
	// the middle of its memory-taint cells; fuzz-resume's p99 moved by 5%
	// between identical runs, its p95 by 1%.
	tailPct float64
	setup   func(e *env) (instance, error)
}

var workloads = []bench{
	{name: "fuzz-cross", entry: "diffcheck.Check", tailPct: 95, setup: setupFuzzCross},
	{name: "fuzz-resume", entry: "diffcheck.Check", tailPct: 95, setup: setupFuzzResume},
	{name: "verify-kernels", entry: "contract.CheckKernel", tailPct: 95, setup: setupVerify},
	{name: "paper-sweep", entry: "harness.Measure", tailPct: 90, setup: setupPaper},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (bench, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return bench{}, false
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected reads the expected result digests.
func loadExpected() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// checkDigest compares a computed digest against the expectation named name,
// printing both.
func checkDigest(e *env, name, got string) []string {
	want, ok := e.expect[name]
	fmt.Fprintf(e.out, "digest %s %s\n", name, got)
	switch {
	case !ok:
		return []string{fmt.Sprintf("result digest %s: no expected value", name)}
	case want != got:
		return []string{fmt.Sprintf("result digest %s = %s, want %s", name, got, want)}
	}
	return nil
}

// digestLines hashes result lines in sorted order, so the digest does not
// depend on the order cells ran in.
func digestLines(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:])
}

// checkRounds is the gate of a workload that repeats a fixed round of n
// cells: every cell ran, and the digest over one result line per cell
// matches the expectation named name.
func checkRounds(e *env, name string, n int, lines map[int]string) []string {
	if len(lines) != n {
		return []string{fmt.Sprintf("%d of %d cells ran", len(lines), n)}
	}
	all := make([]string, 0, n)
	for _, l := range lines {
		all = append(all, l)
	}
	return checkDigest(e, name, digestLines(all))
}

// minRounds is the least number of rounds verify-kernels and paper-sweep
// measure. With three, paper-sweep's p90 has at least ten cells beyond it,
// and verify-kernels' p95 lies inside the cluster of its slowest kernel's
// cells, not on the cluster's edge.
const minRounds = 3

// permutation is the seed's order of a round of n cells.
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// forEach runs f(0..n-1) on the worker pool and waits for it.
func forEach(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// measureRun sets the workload up several times, then runs cells on the
// worker pool until --seconds have passed, at least minDraws cells ran and
// the last round is whole, and reports the end-to-end metrics.
func measureRun(e *env, w bench) (report, error) {
	var inst instance
	var setups []float64
	for wall := time.Duration(0); len(setups) < minSetups || (len(setups) < maxSetups && wall < setupBudget); {
		runtime.GC()
		start, cpu := time.Now(), processCPU()
		in, err := w.setup(e)
		if err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, (processCPU() - cpu).Seconds())
		wall += time.Since(start)
		inst = in
	}
	// Return set-up's memory to the OS, so rss_mb_p50 covers what the
	// measured window itself holds.
	debug.FreeOSMemory()

	rss := startRSSSampler()
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	parts := make([]*tally, e.workers)
	d := &dispenser{min: inst.minDraws(), round: inst.round(), deadline: deadline}
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = &tally{lines: map[int]string{}}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				c, ok := inst.pick(i)
				if !ok {
					return
				}
				t.add(c, inst.run(c))
			}
		}(parts[k])
	}
	wg.Wait()
	cpu := (processCPU() - cpu0).Seconds()
	wallS := time.Since(start).Seconds()
	rssMB := rss.stop()
	all := &tally{lines: map[int]string{}}
	for _, t := range parts {
		all.merge(t)
	}
	extra, problems := inst.finish(all.lines)
	problems = append(all.problems, problems...)

	ms := make([]float64, len(all.ns))
	for i, ns := range all.ns {
		ms[i] = float64(ns) / 1e6
	}
	sort.Float64s(ms)
	tail := quantile(ms, w.tailPct/100)
	beyond := len(ms) - int(math.Ceil(w.tailPct/100*float64(len(ms))))
	fmt.Fprintf(e.out, "%s cells %d in %.3f s wall, %.3f s CPU on %d workers; cell_ms_tail is p%g with %d cells beyond it\n",
		w.name, len(ms), wallS, cpu, e.workers, w.tailPct, beyond)
	fmt.Fprintf(e.out, "%s setup_s samples (CPU s) %s\n", w.name, formatFloats(setups))
	metrics := map[string]metric{
		"cells_per_s":       {float64(len(ms)) / cpu, "1/s"},
		"cell_ms_p50":       {quantile(ms, 0.5), "ms"},
		"cell_ms_tail":      {tail, "ms"},
		"sim_mcycles_per_s": {float64(all.cycles) / 1e6 / cpu, "Mcycles/s"},
		"setup_s":           {median(setups), "s"},
		"rss_mb_p50":        {rssMB, "MB"},
	}
	return finishReport(e, w.name, metrics, len(ms)+extra, problems), nil
}

// dispenser hands out the measured loop's draws. Once the deadline has
// passed it stops at the next round boundary, so every cell of a round is
// measured equally often whatever order the seed gives them.
type dispenser struct {
	mu         sync.Mutex
	next       int
	min, round int
	deadline   time.Time
	stopped    bool
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped || d.next >= d.min && d.next%d.round == 0 && time.Now().After(d.deadline) {
		d.stopped = true
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// tally is what the measured loop keeps of the cells it ran.
type tally struct {
	ns     []int64
	cycles uint64
	// lines holds the first result line of each cell; a repetition that
	// renders differently is a failure.
	lines    map[int]string
	problems []string
}

func (t *tally) add(cell int, o outcome) {
	t.ns = append(t.ns, o.ns)
	t.cycles += o.cycles
	if o.fail != "" {
		t.problems = append(t.problems, o.fail)
	}
	t.addLine(cell, o.line)
}

func (t *tally) addLine(cell int, line string) {
	if prev, ok := t.lines[cell]; !ok {
		t.lines[cell] = line
	} else if prev != line {
		t.problems = append(t.problems, fmt.Sprintf("cell %d is not deterministic: %q then %q", cell, prev, line))
	}
}

func (t *tally) merge(o *tally) {
	t.ns = append(t.ns, o.ns...)
	t.cycles += o.cycles
	t.problems = append(t.problems, o.problems...)
	for c, l := range o.lines {
		t.addLine(c, l)
	}
}

// quantile is the q-quantile of sorted values, interpolating linearly.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func formatFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return strings.Join(parts, " ")
}

// rssSampler samples the resident set size of the process every
// rssInterval while the measured loop runs.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64 // MB; written by the sampling goroutine until done
}

// rssInterval is the sampling period of the resident-set sampler.
const rssInterval = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, float64(residentBytes())/(1<<20))
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median resident set size in MB. The
// median, not the peak: the peak of a garbage-collected process moves with
// the timing of each collection, so it swung by 15% between identical
// runs, while the median held within 3%. State a change keeps resident
// raises both.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	return median(s.samples)
}

// residentBytes reads the current resident set size from /proc.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		panic(err) // present on every Linux kernel
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		panic(fmt.Sprintf("/proc/self/statm: %q", b))
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return pages * int64(os.Getpagesize())
}
