// Package cli is the command-line driver shared by the campaign tools
// (authfuzz, authverify). It owns every flag the tools have in common —
// seeds, policies, mode, parallel, budget, v, out, minimize, cache, resume,
// telemetry, progress, metrics, CPU and heap profiles — and the replay-file
// loop, and it runs the campaign through campaign.Run. A tool supplies its
// defaults and help, its check adapter and finding recorder, and its
// tool-only step.
//
// The exit status is 0 when every check is clean (every replay matches), 1
// when any finding, tool-step violation, or replay mismatch is found, and 2
// on usage errors.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"authpoint/internal/campaign"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/prof"
	"authpoint/internal/report"
	"authpoint/internal/telemetry"
)

// Tool describes one campaign command.
type Tool[R any] struct {
	// Name is the command name; it prefixes every output line.
	Name string
	// Policies is the -policies default.
	Policies string
	// Ext is the finding artifact's file extension (".repro", ".leak").
	Ext string
	// ReplayFlag names the replay-mode flag ("repro", "replay"); Verb is
	// what replay mode replaces in its help ("fuzzing", "sweeping").
	ReplayFlag, Verb string
	// MinimizeHelp and BudgetHelp are the tool's wording of those flags.
	MinimizeHelp, BudgetHelp string
	// Verdicts lists the check's verdicts in report order.
	Verdicts []string

	// Check builds the campaign's check adapter over the result cache
	// (nil without -cache).
	Check func(store *campaign.Store) campaign.Check[R]
	// Cells, if set, extends the seed x policy cells (authfuzz adds
	// tampered copies) and returns the cell summary's suffix; an error is a
	// usage error.
	Cells func([]campaign.Cell) ([]campaign.Cell, string, error)
	// CellLine renders one -v line.
	CellLine func(R) string
	// Finding renders a finding's report line, after "FINDING ".
	Finding func(campaign.Finding[R]) string
	// Record shrinks a finding (when minimize is set) and returns its
	// replay artifact's file name and encoding.
	Record func(f campaign.Finding[R], minimize bool) (name string, artifact []byte)
	// Replay replays one artifact file: detail describes a matching replay
	// for -v, mismatch names the first drifted field, and err means the file
	// could not be loaded.
	Replay func(path string) (detail string, mismatch, err error)
	// After, if set, runs the tool-only step after the campaign and reports
	// whether it found anything.
	After func(seeds []int64, pols []policy.ControlPoint, verbose bool) bool
}

// Main parses the command line (tool-only flags must be registered on
// flag.CommandLine beforehand), runs the tool, and exits.
func Main[R any](t Tool[R]) {
	var (
		seedsFlag = flag.String("seeds", "1:100", "inclusive seed range lo:hi")
		polFlag   = flag.String("policies", t.Policies, policy.SetHelp())
		mode      = flag.String("mode", "pair", "pair (seed i under policies[i mod n]) or cross (every seed under every policy)")
		minimize  = flag.Bool("minimize", true, t.MinimizeHelp)
		outDir    = flag.String("out", "", fmt.Sprintf("directory to write %s files for findings (none if empty)", t.Ext))
		replay    = flag.Bool(t.ReplayFlag, false, fmt.Sprintf("replay %s files given as arguments instead of %s", t.Ext, t.Verb))
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = NumCPU)")
		budget    = flag.Duration("budget", 0, t.BudgetHelp)
		verbose   = flag.Bool("v", false, "print one line per cell")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file before exit")
		metrics   = flag.Bool("metrics", false, "attach an observability hub to every timed run; print the merged campaign metrics (and write metrics.json under -out)")
		teleOut   = flag.String("telemetry", "", "stream a JSONL run ledger (one record per cell) to this path")
		progress  = flag.Bool("progress", false, "print live progress/ETA heartbeats to stderr")
		cacheDir  = flag.String("cache", "", "content-addressed result cache directory: checks hit the cache instead of simulating when the (program, policy, options) cell was already checked")
		resumeAt  = flag.String("resume", "", "resume from a prior run's telemetry ledger: cells it records as done are not re-run (prior findings are regenerated through the cache)")
	)
	flag.Parse()

	if *replay {
		os.Exit(t.replayFiles(flag.Args(), *verbose))
	}
	if flag.NArg() > 0 {
		t.fatalf("unexpected arguments %q (use -%s to replay files)", flag.Args(), t.ReplayFlag)
	}

	seeds, err := diffcheck.ParseSeedRange(*seedsFlag)
	if err != nil {
		t.fatalf("%v", err)
	}
	pols, err := policy.ParseSet(*polFlag)
	if err != nil {
		t.fatalf("%v", err)
	}
	cells, err := campaign.Cells(*mode, seeds, pols)
	if err != nil {
		t.fatalf("%v", err)
	}
	shape := ""
	if t.Cells != nil {
		if cells, shape, err = t.Cells(cells); err != nil {
			t.fatalf("%v", err)
		}
	}

	ctx := context.Background()
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}
	var store *campaign.Store
	if *cacheDir != "" {
		if store, err = campaign.Open(*cacheDir); err != nil {
			t.fatalf("%v", err)
		}
	}
	sw := campaign.Sweep{Parallelism: *parallel, CollectMetrics: *metrics}
	if *resumeAt != "" {
		if sw.Done, err = campaign.LoadCompleted(*resumeAt, t.Name); err != nil {
			t.fatalf("resume: %v", err)
		}
	}
	stopProf, err := prof.Start(*cpuprof)
	if err != nil {
		t.fatalf("%v", err)
	}
	if *teleOut != "" {
		if sw.Ledger, err = telemetry.Create(*teleOut, telemetry.NewHeader(t.Name, *parallel)); err != nil {
			t.fatalf("%v", err)
		}
	}
	if *progress {
		sw.Meter = telemetry.NewMeter(os.Stderr, t.Name, 0)
	}

	chk := t.Check(store)
	start := time.Now()
	rep, err := campaign.Run(ctx, chk, cells, sw)
	elapsed := time.Since(start).Round(time.Millisecond)
	if sw.Done != nil {
		fmt.Printf("%s: resume: %d/%d cells already done (%d prior findings)\n",
			t.Name, rep.Resumed, rep.Total, rep.PriorFindings)
	}
	fmt.Printf("%s: %d cells (%d seeds x %d policies, mode %s%s) in %v\n",
		t.Name, rep.Total, len(seeds), len(pols), *mode, shape, elapsed)
	t.summarize(chk, rep, *verbose)
	if store != nil {
		fmt.Printf("%s: cache: %d hits, %d misses, %d stored (%s)\n",
			t.Name, store.Hits(), store.Misses(), store.Puts(), store.Dir())
		if cerr := store.Err(); cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: cache: %v\n", t.Name, cerr)
		}
	}
	if err != nil && err != context.DeadlineExceeded {
		fmt.Fprintf(os.Stderr, "%s: sweep: %v\n", t.Name, err)
	}
	for _, f := range rep.Findings {
		t.report(f, *minimize, *outDir)
	}
	bad := len(rep.Findings) > 0

	if sw.Meter != nil {
		sw.Meter.Finish()
	}
	if sw.Ledger != nil {
		if err := sw.Ledger.Close(); err != nil {
			t.fatalf("telemetry: %v", err)
		}
	}
	if rep.Metrics != nil {
		fmt.Println()
		report.WriteMetrics(os.Stdout, rep.Metrics)
		// Recorded next to the findings, so a campaign's observability
		// outlives the terminal.
		if *outDir != "" {
			data, err := json.MarshalIndent(rep.Metrics, "", "  ")
			if err != nil {
				t.fatalf("%v", err)
			}
			t.writeFile(*outDir, "metrics.json", append(data, '\n'))
		}
	}
	if t.After != nil {
		bad = t.After(seeds, pols, *verbose) || bad
	}

	// Main exits through os.Exit, so the profiles must be flushed here
	// rather than in deferred calls.
	stopProf()
	if err := prof.WriteHeap(*memprof); err != nil {
		t.fatalf("%v", err)
	}
	if bad {
		os.Exit(1)
	}
}

// Fatalf reports a usage or tool error for the named command and exits 2.
func Fatalf(name, format string, args ...any) {
	fmt.Fprintf(os.Stderr, name+": "+format+"\n", args...)
	os.Exit(2)
}

func (t Tool[R]) fatalf(format string, args ...any) { Fatalf(t.Name, format, args...) }

// summarize prints the verdict counts (and, with -v, one line per cell).
func (t Tool[R]) summarize(chk campaign.Check[R], rep campaign.Report[R], verbose bool) {
	counts := map[string]int{}
	skipped, cached := 0, 0
	for _, r := range rep.Results {
		out := chk.Outcome(r)
		if out.Verdict == "" {
			skipped++
			continue
		}
		counts[out.Verdict]++
		if out.Cached {
			cached++
		}
		if verbose {
			fmt.Println(t.CellLine(r))
		}
	}
	fmt.Printf("%s: verdicts:", t.Name)
	for _, v := range t.Verdicts {
		if counts[v] > 0 {
			fmt.Printf(" %s=%d", v, counts[v])
		}
	}
	if cached > 0 {
		fmt.Printf(" cached=%d", cached)
	}
	if skipped > 0 {
		fmt.Printf(" skipped=%d (budget)", skipped)
	}
	fmt.Println()
}

// report prints one finding and, with -out, records its replay artifact.
func (t Tool[R]) report(f campaign.Finding[R], minimize bool, outDir string) {
	fmt.Printf("%s: FINDING %s\n", t.Name, t.Finding(f))
	if outDir != "" {
		name, artifact := t.Record(f, minimize)
		t.writeFile(outDir, name, artifact)
	}
}

// writeFile writes data to outDir/name, creating outDir, and says so.
func (t Tool[R]) writeFile(outDir, name string, data []byte) {
	path := filepath.Join(outDir, name)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.fatalf("%v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.fatalf("%v", err)
	}
	fmt.Printf("%s: wrote %s\n", t.Name, path)
}

// replayFiles replays each artifact byte-identically; any mismatch is a
// finding (the model drifted from the recording, or the recording is
// stale).
func (t Tool[R]) replayFiles(files []string, verbose bool) int {
	if len(files) == 0 {
		t.fatalf("-%s needs at least one file", t.ReplayFlag)
	}
	code := 0
	for _, path := range files {
		detail, mismatch, err := t.Replay(path)
		switch {
		case err != nil:
			t.fatalf("%v", err)
		case mismatch != nil:
			code = 1
			fmt.Printf("%s: REPLAY MISMATCH %s: %v\n", t.Name, path, mismatch)
		case verbose:
			fmt.Printf("%s: %s replayed byte-identically\n", path, detail)
		default:
			fmt.Printf("%s: ok\n", path)
		}
	}
	return code
}
