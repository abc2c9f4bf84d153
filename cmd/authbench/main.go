// Command authbench regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper reports.
// Every normalized-IPC sweep runs on the campaign engine (campaign.Run): its
// cells fan out over a pool of -parallel workers, and the output is
// byte-identical to a serial run.
//
// Usage:
//
//	authbench -experiment all                  # everything (several minutes)
//	authbench -experiment fig7a                # one artifact
//	authbench -experiment table2 -quick        # fast smoke versions
//	authbench -experiment fig7a -parallel 8    # pin the worker pool
//	authbench -experiment bench -json BENCH_sweep.json   # serial-vs-parallel record
//	authbench -experiment fig8 -cpuprofile cpu.pprof     # profile the hot path
//	authbench -experiment table2 -metrics                # per-policy stall/gap summaries
//	authbench -experiment lattice                        # full composable-policy sweep -> BENCH_lattice.json
//	authbench -trace smoke.json -trace-scheme commit+fetch   # traced smoke run, then exit
//
// Experiments: table1 table2 table3 fig6 fig7a fig7b fig7c fig7d fig8 fig9
// fig10 fig11 fig12 fig13 ablations lattice bench all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"authpoint/internal/campaign"
	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
	"authpoint/internal/prof"
	"authpoint/internal/report"
	"authpoint/internal/sim"
	"authpoint/internal/telemetry"
	"authpoint/internal/workload"
)

func main() {
	var (
		exp        = flag.String("experiment", "all", "which artifact to regenerate (see doc)")
		quick      = flag.Bool("quick", false, "small workload subset and short windows")
		warmup     = flag.Uint64("warmup", 0, "override warmup instructions")
		measure    = flag.Uint64("measure", 0, "override measured instructions")
		loadList   = flag.String("workloads", "", "comma-separated workload subset (default: all 18)")
		bars       = flag.Bool("bars", false, "render normalized-IPC sweeps as bar groups (figure-style)")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "sweep worker pool size (1 = serial)")
		jsonOut    = flag.String("json", "", "write a machine-readable bench record to this path")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path")
		metrics    = flag.Bool("metrics", false, "collect per-cell metrics; print a per-scheme stall/gap summary after each experiment (and embed snapshots in -json cells)")
		traceOut   = flag.String("trace", "", "run one short traced sim, write Chrome/Perfetto trace-event JSON here, and exit (skips experiments)")
		traceSch   = flag.String("trace-scheme", "commit+fetch", "control point for the -trace run (any policy name)")
		latticeOut = flag.String("lattice-out", "BENCH_lattice.json", "output path for the lattice experiment record")
		traceLoad  = flag.String("trace-workload", "mcfx", "workload for the -trace run")
		traceInsts = flag.Uint64("trace-insts", 60_000, "instruction budget for the -trace run (after workload init)")
		teleOut    = flag.String("telemetry", "", "stream a JSONL run ledger (one record per sweep cell) to this path")
		progress   = flag.Bool("progress", false, "print live progress/ETA heartbeats to stderr")
	)
	flag.Parse()

	if *traceOut != "" {
		if err := runTracedSmoke(*traceOut, *traceSch, *traceLoad, *traceInsts); err != nil {
			fatalf("trace: %v", err)
		}
		return
	}

	p := experiments.DefaultParams()
	if *quick {
		p = experiments.QuickParams()
	}
	if *warmup > 0 {
		p.Warmup = *warmup
	}
	if *measure > 0 {
		p.Measure = *measure
	}
	if *loadList != "" {
		var ws []workload.Workload
		for _, name := range strings.Split(*loadList, ",") {
			w, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown workload %q", name)
			}
			ws = append(ws, w)
		}
		p.Workloads = ws
	}

	stopProf, err := prof.Start(*cpuprofile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	if *jsonOut != "" {
		benchRec = newBenchRecorder(*parallel)
	}
	p.Sweep = campaign.Sweep{Parallelism: *parallel, CollectMetrics: *metrics}
	if *teleOut != "" {
		l, err := telemetry.Create(*teleOut, telemetry.NewHeader("authbench:"+*exp, *parallel))
		if err != nil {
			fatalf("%v", err)
		}
		p.Sweep.Ledger = l
		defer func() {
			if err := l.Close(); err != nil {
				fatalf("telemetry: %v", err)
			}
		}()
	}
	if *progress {
		p.Sweep.Meter = telemetry.NewMeter(os.Stderr, "authbench", 0)
		defer p.Sweep.Meter.Finish()
	}
	p.Memo = &harness.Runner{}
	p.OnCell = observeCell

	latticePath = *latticeOut
	renderBars = *bars
	start := time.Now()
	for _, e := range strings.Split(*exp, ",") {
		if err := run(strings.TrimSpace(e), p); err != nil {
			fatalf("%s: %v", e, err)
		}
	}
	fmt.Printf("\n(total wall time %v, %d workers)\n", time.Since(start).Round(time.Second), *parallel)

	if err := prof.WriteHeap(*memprofile); err != nil {
		fatalf("%v", err)
	}
	if benchRec != nil {
		if err := benchRec.write(*jsonOut); err != nil {
			fatalf("json: %v", err)
		}
		fmt.Printf("(bench record written to %s)\n", *jsonOut)
	}
}

// Shared state the experiment dispatcher reads (set once in main before any
// experiment runs).
var (
	// benchRec is non-nil when -json is set.
	benchRec *benchRecorder
	// metricsAgg is non-nil while a -metrics leaf experiment runs; run()
	// swaps in a fresh aggregator per experiment and renders it after.
	metricsAgg *report.Aggregator
)

// observeCell is every sweep's per-cell hook: it hands each finished cell to
// the -json recorder and the -metrics aggregator (either may be nil), read at
// call time so run() can swap in a fresh aggregator per leaf experiment.
// Memoized baseline cells share the snapshot of the cell that ran them, so
// the aggregator skips them to avoid counting it once per policy row.
func observeCell(c experiments.CellResult) {
	if benchRec != nil {
		benchRec.observe(c)
	}
	if metricsAgg != nil && !c.Cached {
		// Bounds always match across cells (fixed bucket sets), so the only
		// merge error is a programming bug; surface it loudly.
		if err := metricsAgg.Add(c.Spec.Config.ControlPoint(), c.Measurement.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "authbench: metrics: %v\n", err)
		}
	}
}

// renderBars switches sweep output to figure-style bar groups.
var renderBars bool

// latticePath is the -lattice-out flag.
var latticePath string

func renderSweep(w *os.File, sw *experiments.Sweep) {
	if renderBars {
		sw.RenderBars(w)
		return
	}
	sw.Render(w)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authbench: "+format+"\n", args...)
	os.Exit(1)
}

// run dispatches one experiment name, recording a bench section around each
// leaf experiment when -json is active and a per-scheme metrics summary when
// -metrics is active.
func run(name string, p experiments.Params) error {
	switch name {
	case "all", "bench":
		return runLeaf(name, p)
	}
	if benchRec != nil {
		benchRec.begin(name)
		defer benchRec.end(p.Memo)
	}
	if p.Sweep.CollectMetrics {
		metricsAgg = report.NewAggregator()
	}
	if err := runLeaf(name, p); err != nil {
		return err
	}
	if metricsAgg != nil {
		fmt.Println()
		report.WriteSchemeSummaries(os.Stdout, metricsAgg.Summaries())
		metricsAgg = nil
	}
	return nil
}

func runLeaf(name string, p experiments.Params) error {
	w := os.Stdout
	section := func(s string) { fmt.Fprintf(w, "\n==== %s ====\n", s) }
	switch name {
	case "all":
		// fig10 renders fig11 and fig12 renders fig13 (they derive from the
		// same sweeps), so each pair runs once.
		for _, e := range []string{
			"table1", "table2", "table3", "fig6",
			"fig7a", "fig7b", "fig7c", "fig7d",
			"fig8", "fig9", "fig10", "fig12",
		} {
			if err := run(e, p); err != nil {
				return err
			}
		}
		return nil

	case "bench":
		section("Sweep bench: serial vs parallel wall time, byte-identical output")
		return runBenchExperiment(benchRec, p)

	case "lattice":
		section("Lattice: normalized IPC across the composable control-point space")
		return runLatticeExperiment(w, p, latticePath)

	case "table1":
		section("Table 1")
		rows, err := experiments.Table1(sim.DefaultConfig())
		if err != nil {
			return err
		}
		experiments.RenderTable1(w, rows)

	case "table2":
		section("Table 2")
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		experiments.RenderTable2(w, rows)

	case "table3":
		section("Table 3")
		experiments.RenderTable3(w, sim.DefaultConfig())

	case "fig6":
		section("Figure 6")
		rows, err := experiments.Fig6()
		if err != nil {
			return err
		}
		experiments.RenderFig6(w, rows)

	case "fig7a", "fig7b", "fig7c", "fig7d":
		fp := name == "fig7b" || name == "fig7d"
		l2 := 256 << 10
		lat := 4
		if name == "fig7c" || name == "fig7d" {
			l2 = 1 << 20
			lat = 8
		}
		section("Figure 7" + name[4:])
		sw, err := experiments.Fig7(p, fp, l2, lat)
		if err != nil {
			return err
		}
		renderSweep(w, sw)

	case "fig8":
		// Figure 8 derives from the 256KB Figure 7 data: IPC speedup of the
		// relaxed schemes over authen-then-issue.
		section("Figure 8")
		sw, err := experiments.RunSweep("fig8 base data (256KB L2)", p,
			[]policy.ControlPoint{policy.ThenIssue, policy.ThenWrite, policy.ThenCommit, policy.CommitPlusFetch}, nil)
		if err != nil {
			return err
		}
		experiments.RenderSpeedups(w, "Figure 8: IPC speedup over authen-then-issue, 256KB L2",
			sw.Speedups([]policy.ControlPoint{policy.ThenCommit, policy.ThenWrite, policy.CommitPlusFetch}),
			[]policy.ControlPoint{policy.ThenCommit, policy.ThenWrite, policy.CommitPlusFetch})

	case "fig9":
		section("Figure 9")
		pts, err := experiments.Fig9(p, []int{64 << 10, 256 << 10, 1 << 20})
		if err != nil {
			return err
		}
		experiments.RenderFig9(w, pts)

	case "fig10", "fig11":
		section("Figures 10/11 (64-entry RUU)")
		sw, err := experiments.Fig10(p)
		if err != nil {
			return err
		}
		renderSweep(w, sw)
		experiments.RenderSpeedups(w, "Figure 11: speedup over authen-then-issue, 64-entry RUU",
			sw.Speedups([]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch}),
			[]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch})

	case "fig12", "fig13":
		section("Figures 12/13 (MAC-tree authentication)")
		sw, err := experiments.Fig12(p)
		if err != nil {
			return err
		}
		renderSweep(w, sw)
		experiments.RenderSpeedups(w, "Figure 13: speedup over authen-then-issue, MAC tree",
			sw.Speedups([]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch}),
			[]policy.ControlPoint{policy.ThenCommit, policy.CommitPlusFetch})

	case "ablations":
		section("Ablations (design-choice sensitivity, beyond the paper's figures)")
		abls, err := experiments.AllAblations(p)
		if err != nil {
			return err
		}
		for _, a := range abls {
			a.Render(w)
		}

	default:
		return fmt.Errorf("unknown experiment (want table1..3, fig6..fig13, ablations, lattice, bench, or all)")
	}
	return nil
}
