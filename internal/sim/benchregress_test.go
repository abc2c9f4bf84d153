package sim_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// TestFastPathBenchRegression is the CI bench-regression gate. It measures
// the fast-path and reference-loop host cost back to back on the same cell
// and fails if the fast path has lost more than 25% of its recorded
// advantage (BENCH_fastpath.json, regression_baseline.max_fast_over_slow).
//
// The gate compares the fast/slow *ratio*, not absolute host-ns/sim-cycle:
// both loops run on the same machine within seconds of each other, so the
// ratio is stable across runner hardware while absolute nanoseconds are
// not. A regression in the fast path specifically (µop cache misses,
// fast-forward stops firing) moves the ratio toward 1; optimizations shared
// by both paths cancel out, which is exactly what "fast path still earns
// its keep" should mean.
//
// The measurement takes ~20s on one core, so the test is opt-in: set
// BENCH_REGRESS=1 (CI does). Skip CI's run with "[bench-skip]" in the
// commit message.
func TestFastPathBenchRegression(t *testing.T) {
	if os.Getenv("BENCH_REGRESS") == "" {
		t.Skip("set BENCH_REGRESS=1 to run the bench-regression gate")
	}

	raw, err := os.ReadFile("../../BENCH_fastpath.json")
	if err != nil {
		t.Fatalf("reading checked-in baseline: %v", err)
	}
	var rec struct {
		RegressionBaseline struct {
			FastOverSlow    float64 `json:"fast_over_slow"`
			MaxFastOverSlow float64 `json:"max_fast_over_slow"`
		} `json:"regression_baseline"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("parsing BENCH_fastpath.json: %v", err)
	}
	max := rec.RegressionBaseline.MaxFastOverSlow
	if max <= 0 || max >= 1 {
		t.Fatalf("baseline max_fast_over_slow = %v, want a ratio in (0, 1)", max)
	}

	// Best of three runs per path damps scheduler noise; interleaving the
	// pairs keeps thermal/frequency drift from biasing one side.
	const insts, runs = 200_000, 3
	measure := func(slow bool) float64 {
		m := benchMachine(t, policy.ThenCommit, insts, slow)
		start := time.Now()
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(res.Cycles)
	}
	fast, slowNs := -1.0, -1.0
	for i := 0; i < runs; i++ {
		if f := measure(false); fast < 0 || f < fast {
			fast = f
		}
		if s := measure(true); slowNs < 0 || s < slowNs {
			slowNs = s
		}
	}

	ratio := fast / slowNs
	t.Logf("fast %.1f ns/cycle, slow %.1f ns/cycle, fast/slow %.3f (baseline %.3f, gate %.3f)",
		fast, slowNs, ratio, rec.RegressionBaseline.FastOverSlow, max)
	if ratio > max {
		t.Errorf("fast-path advantage regressed: fast/slow = %.3f > %.3f allowed "+
			"(baseline %.3f +25%%); profile the fast path or re-record BENCH_fastpath.json deliberately",
			ratio, max, rec.RegressionBaseline.FastOverSlow)
	}
}

// TestSetupBenchRegression is the CI gate on machine construction. It
// times a warm build of the probe machine (mcfx plus the 1 MiB probe
// region, the shape two-run contract checks build) against a fixed
// simulation run on the same host, and fails if the build/run ratio has
// grown more than 25% past the recorded one (BENCH_layers.json,
// regression_baseline.max_build_over_run). Like the fast-path gate it
// compares a ratio of two measurements taken seconds apart, which holds
// across runner hardware where absolute times do not. Opt-in with
// BENCH_REGRESS=1, as CI sets.
func TestSetupBenchRegression(t *testing.T) {
	if os.Getenv("BENCH_REGRESS") == "" {
		t.Skip("set BENCH_REGRESS=1 to run the bench-regression gate")
	}
	raw, err := os.ReadFile("../../BENCH_layers.json")
	if err != nil {
		t.Fatalf("reading checked-in baseline: %v", err)
	}
	var rec struct {
		RegressionBaseline struct {
			BuildOverRun    float64 `json:"build_over_run"`
			MaxBuildOverRun float64 `json:"max_build_over_run"`
		} `json:"regression_baseline"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("parsing BENCH_layers.json: %v", err)
	}
	limit := rec.RegressionBaseline.MaxBuildOverRun
	if limit <= 0 {
		t.Fatalf("baseline max_build_over_run = %v, want a positive ratio", limit)
	}
	build, run := setupOverRun(t)
	ratio := build / run
	t.Logf("probe build %.3f ms, fixed run %.3f ms, build/run %.4f (baseline %.4f, gate %.4f)",
		build/1e6, run/1e6, ratio, rec.RegressionBaseline.BuildOverRun, limit)
	if ratio > limit {
		t.Errorf("machine construction regressed: build/run = %.4f > %.4f allowed "+
			"(baseline %.4f +25%%); profile NewMachineWithRegions or re-record BENCH_layers.json deliberately",
			ratio, limit, rec.RegressionBaseline.BuildOverRun)
	}
}

// setupOverRun returns the best-of-several host nanoseconds of a warm probe
// machine build and of a fixed 50k-instruction then-commit run.
func setupOverRun(t *testing.T) (build, run float64) {
	p := assembleWorkload(t, "mcfx")
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	best := func(n int, f func()) float64 {
		b := -1.0
		for i := 0; i < n; i++ {
			start := time.Now()
			f()
			if d := float64(time.Since(start).Nanoseconds()); b < 0 || d < b {
				b = d
			}
		}
		return b
	}
	newProbe := func() {
		if _, err := sim.NewMachineWithRegions(cfg, p, probeRegion); err != nil {
			t.Fatal(err)
		}
	}
	newProbe() // fill the sealed-page table: the gate times warm builds
	for round := 0; round < 3; round++ {
		b := best(20, newProbe)
		m := benchMachine(t, policy.ThenCommit, 50_000, false)
		r := best(1, func() {
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if round == 0 || b < build {
			build = b
		}
		if round == 0 || r < run {
			run = r
		}
	}
	return build, run
}
