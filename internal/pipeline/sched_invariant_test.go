// Scheduler invariant pins: the ready-candidate bitmap that the issue stage,
// NextEventAt and SkipTo walk must mark exactly the waiting entries the
// issue stage can act on, after every Step, on both run loops. External
// test package: it drives full machines (sim imports pipeline).
package pipeline_test

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// gatedPolicies returns baseline plus every point of the ci lattice (every
// single gate and every pairwise composition) that sets a core-side gate:
// GateIssue, GateCommit or StoreWaitAuth.
func gatedPolicies() []policy.ControlPoint {
	out := []policy.ControlPoint{policy.Baseline}
	for _, p := range policy.Lattice() {
		if k := p.Knobs(); k.GateIssue || k.GateCommit || k.StoreWaitAuth {
			out = append(out, p)
		}
	}
	return out
}

// runChecked runs p under cfg with the scheduler checker after every Step,
// on the fast loop or the reference loop, and fails on the first violation.
// The checker runs as each Step begins, and once more after the run.
func runChecked(t *testing.T, cfg sim.Config, p *asm.Program, slow bool) {
	t.Helper()
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if slow {
		m.DisableFastPath()
	}
	var first error
	steps := 0
	m.Core.SetStepCheck(func() {
		steps++
		if first == nil {
			first = m.Core.CheckScheduler()
		}
	})
	res, runErr := m.Run()
	if runErr != nil && res.Reason != sim.StopWatchdog {
		t.Fatalf("run (slow=%v): %v", slow, runErr)
	}
	if first == nil {
		first = m.Core.CheckScheduler()
	}
	if first != nil {
		t.Fatalf("%v (slow=%v): %v", cfg.Policy, slow, first)
	}
	if steps == 0 {
		t.Fatalf("%v (slow=%v): checker never ran", cfg.Policy, slow)
	}
}

// TestSchedulerInvariantRandomPrograms covers the generated programs of the
// fast/slow differential suite.
func TestSchedulerInvariantRandomPrograms(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 8
	}
	points := gatedPolicies()
	for seed := int64(1); seed <= seeds; seed++ {
		p, err := asm.Assemble(diffcheck.GenProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pt := range points {
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			runChecked(t, cfg, p, false)
			runChecked(t, cfg, p, true)
		}
	}
}

// TestSchedulerInvariantWorkloads covers workload kernels, whose long
// dependence chains behind authenticated loads fill the window. Every run
// is stepped cycle by cycle at least once (the reference loop), so the
// kernels are a sample and the runs short.
func TestSchedulerInvariantWorkloads(t *testing.T) {
	kernels := workload.All()[:6]
	if testing.Short() {
		kernels = kernels[:2]
	}
	for _, w := range kernels {
		p, err := asm.Assemble(w.Source)
		if err != nil {
			t.Fatalf("assemble %s: %v", w.Name, err)
		}
		for _, pt := range gatedPolicies() {
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			cfg.MaxInsts = 3_000
			runChecked(t, cfg, p, false)
			runChecked(t, cfg, p, true)
		}
	}
}
