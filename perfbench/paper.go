package main

import (
	"fmt"
	"strconv"

	"authpoint/internal/asm"
	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// paperWorkloads are the Figure 7 kernels whose cells spend most of their
// time in the run loop.
var paperWorkloads = []string{"gapx", "lucasx", "wupwisex", "applux", "bzip2x"}

type paperCell struct {
	spec harness.Spec
	prog *asm.Program
}

// paperSweep measures IPC at the default windows over the Figure 7 policies;
// the seed orders the round.
type paperSweep struct {
	e     *env
	cells []paperCell
	order []int
}

func setupPaper(e *env) (instance, error) {
	names := paperWorkloads
	pols := append([]policy.ControlPoint{policy.Baseline}, experiments.PerfPolicies...)
	if e.tiny {
		names, pols = names[:1], pols[:2]
	}
	p := &paperSweep{e: e}
	for _, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("paper-sweep: no workload %s", name)
		}
		prog, err := asm.Assemble(w.Source)
		if err != nil {
			return nil, fmt.Errorf("paper-sweep: %s: %w", name, err)
		}
		for _, pt := range pols {
			cfg := sim.DefaultConfig()
			cfg.Policy = pt
			p.cells = append(p.cells, paperCell{
				spec: harness.Spec{Workload: w, Config: cfg, WarmupInsts: harness.DefaultWarmup, MeasureInsts: harness.DefaultMeasure},
				prog: prog,
			})
		}
	}
	p.order = permutation(e.seed, len(p.cells))
	return p, nil
}

func (p *paperSweep) pick(i int) (int, bool) { return p.order[i%len(p.order)], true }
func (p *paperSweep) minDraws() int          { return minRounds * len(p.cells) }
func (p *paperSweep) round() int             { return len(p.cells) }
func (p *paperSweep) resetTrace() error      { return nil }

// sample covers every workload and every policy once: cell (w, w) for each
// workload, then the policies the diagonal missed.
func (p *paperSweep) sample() []int {
	if p.e.tiny {
		return seq(len(p.cells))
	}
	np := len(experiments.PerfPolicies) + 1
	nw := len(p.cells) / np
	out := make([]int, np)
	for k := range out {
		out[k] = (k%nw)*np + k
	}
	return out
}

func (p *paperSweep) run(i int) outcome {
	var (
		m   harness.Measurement
		err error
	)
	ns := timed(func() { m, err = harness.Measure(p.cells[i].spec) })
	o := paperOutcome(p.cells[i], m, err)
	o.ns = ns
	return o
}

func (p *paperSweep) finish(lines map[int]string) (int, []string) {
	name := "paper-sweep"
	if p.e.tiny {
		name += "-tiny"
	}
	return 0, checkRounds(p.e, name, len(p.cells), lines)
}

func (p *paperSweep) traceCell(t *tracer, i int) outcome {
	c := p.cells[i]
	var (
		m   harness.Measurement
		err error
	)
	root := t.span(-1, "harness.Measure", func() { m, err = harness.Measure(c.spec) })
	if err == nil {
		replayMeasure(t, root, c, m)
	}
	return paperOutcome(c, m, err)
}

// paperOutcome renders a measurement; a measurement error fails the gate.
func paperOutcome(c paperCell, m harness.Measurement, err error) outcome {
	pt := c.spec.Config.ControlPoint()
	if err != nil {
		return outcome{line: fmt.Sprintf("paper workload=%s policy=%s error=%q", c.spec.Workload.Name, pt, err),
			fail: fmt.Sprintf("%s under %v: %v", c.spec.Workload.Name, pt, err)}
	}
	r := m.Result
	return outcome{
		line: fmt.Sprintf("paper workload=%s policy=%s cycles=%d insts=%d ipc=%s total_cycles=%d total_insts=%d fetches=%d auth_requests=%d",
			m.Name, m.Policy, m.Cycles, m.Insts, strconv.FormatFloat(m.IPC, 'g', -1, 64), r.Cycles, r.Insts, r.Sec.Fetches, r.Sec.AuthRequests),
		cycles: r.Cycles,
	}
}
