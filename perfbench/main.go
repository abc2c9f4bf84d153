// Command perfbench is the repository benchmark. It drives the per-cell
// public entry points of the simulator's campaigns — diffcheck.Check,
// contract.CheckKernel, harness.Measure and campaign.Store — on four
// workloads, checks every result, and prints one JSON object as the last
// line of its standard output.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload fuzz-cross --seed 1 --seconds 10 --trace 0
//
// --workload all runs the four workloads in turn in one process.
//
// With --trace 0 it sets the workload up several times (setup_s is the
// median), then runs cells on a fixed pool of workers for --seconds and
// reports the end-to-end metrics. With --trace 1 it replays a fixed sample of
// the workload's cells as the sequence of public calls the entry point makes,
// one span per call, and reports per-layer costs; spans are written to
// .bench_build/perfbench/work/spans-<workload>.json when the run ends.
//
// The benchmark never calls the sweep functions or the CLIs, so a rework of
// those leaves it intact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is the fixed size of the measured loop's worker pool.
	workers int
	// work is the scratch directory for result stores and span files.
	work string
	// tiny shrinks every workload to a few cells (the self-test size).
	tiny bool
	// expect maps digest names to the expected result digests.
	expect map[string]string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets its workload up at least minSetups times and keeps going, up
// to maxSetups, until setupBudget has passed; setup_s is the median, and the
// last set-up is the one measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// defaultWorkers bounds the worker pool: two workers, or fewer on a host
// with fewer CPUs.
func defaultWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d: want 0 or 1\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.workers = defaultWorkers()
	cfg.work = filepath.Join(".bench_build", "perfbench", "work")
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg.expect = exp
	do := execute
	if cfg.workload == "all" {
		do = executeAll
	}
	rep, err := do(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one configured benchmark and returns its report. Human-readable
// lines (every metric with its unit, digests, layer tables, failures) go to
// out before the report.
func execute(cfg config, out io.Writer) (report, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("--workload %q: want one of %s", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	dir := filepath.Join(cfg.work, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	env := &env{config: cfg, dir: dir, out: out}

	if cfg.trace {
		return traceRun(env, w)
	}
	return measureRun(env, w)
}

// executeAll runs every workload in turn in this process and folds their
// reports into one, naming each metric <workload>.<metric>.
func executeAll(cfg config, out io.Writer) (report, error) {
	all := report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		c := cfg
		c.workload = w.name
		rep, err := execute(c, out)
		if err != nil {
			return report{}, err
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, v := range rep.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	return all, nil
}

// finishReport fills the verdict fields and prints the metrics and any
// failures.
func finishReport(env *env, name string, metrics map[string]metric, attempted int, problems []string) report {
	rep := report{
		Correct:   len(problems) == 0,
		Attempted: attempted,
		Failed:    len(problems),
		Metrics:   metrics,
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(env.out, "%s %s %.6g %s\n", name, k, metrics[k].Value, metrics[k].Unit)
	}
	fail := 0.0
	if attempted > 0 {
		fail = float64(len(problems)) / float64(attempted)
	}
	fmt.Fprintf(env.out, "%s fail_ratio %.6g (%d failed of %d attempted)\n", name, fail, len(problems), attempted)
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(env.out, "%s FAIL ... %d more\n", name, len(problems)-i)
			break
		}
		fmt.Fprintf(env.out, "%s FAIL %s\n", name, p)
	}
	return rep
}
