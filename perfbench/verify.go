package main

import (
	"fmt"

	"authpoint/internal/contract"
	"authpoint/internal/policy"
)

// verifyPolicies is the policy slice verify-kernels checks every kernel
// under.
var verifyPolicies = []string{
	"baseline",
	"authen-only",
	"authen-then-commit",
	"authen-then-commit+fetch",
	"authen-then-commit+obfuscation",
	"authen-then-commit+pac",
	"authen-then-commit+fpac",
}

type verifyCell struct {
	kc     contract.KernelCase
	policy policy.ControlPoint
}

// verifyKernels runs the two-run contract check over the attack-kernel
// catalog; the seed orders the round.
type verifyKernels struct {
	e     *env
	cells []verifyCell
	order []int
}

func setupVerify(e *env) (instance, error) {
	cases, err := contract.Catalog()
	if err != nil {
		return nil, err
	}
	pols := make([]policy.ControlPoint, len(verifyPolicies))
	for i, name := range verifyPolicies {
		if pols[i], err = policy.Parse(name); err != nil {
			return nil, err
		}
	}
	if e.tiny {
		// One kernel without the probe region keeps the self-test short.
		for _, kc := range cases {
			if len(kc.Regions) == 0 {
				cases = []contract.KernelCase{kc}
				break
			}
		}
		pols = pols[:2]
	}
	v := &verifyKernels{e: e}
	for _, kc := range cases {
		for _, pt := range pols {
			v.cells = append(v.cells, verifyCell{kc: kc, policy: pt})
		}
	}
	v.order = permutation(e.seed, len(v.cells))
	return v, nil
}

func (v *verifyKernels) pick(i int) (int, bool) { return v.order[i%len(v.order)], true }

func (v *verifyKernels) minDraws() int     { return minRounds * len(v.cells) }
func (v *verifyKernels) round() int        { return len(v.cells) }
func (v *verifyKernels) resetTrace() error { return nil }

// sample is every fifth cell of the catalog order, which mixes kernels with
// and without the probe region.
func (v *verifyKernels) sample() []int {
	var out []int
	for i := 0; i < len(v.cells); i += 5 {
		out = append(out, i)
	}
	return out
}

func (v *verifyKernels) run(i int) outcome {
	c := v.cells[i]
	var (
		res contract.Result
		err error
	)
	ns := timed(func() { res, err = contract.CheckKernel(c.kc, contract.Options{Policy: c.policy}) })
	o := verifyOutcome(c, res, err)
	o.ns = ns
	return o
}

func (v *verifyKernels) finish(lines map[int]string) (int, []string) {
	name := "verify-kernels"
	if v.e.tiny {
		name += "-tiny"
	}
	return 0, checkRounds(v.e, name, len(v.cells), lines)
}

func (v *verifyKernels) traceCell(t *tracer, i int) outcome {
	c := v.cells[i]
	var (
		res contract.Result
		err error
	)
	root := t.span(-1, "contract.CheckKernel", func() { res, err = contract.CheckKernel(c.kc, contract.Options{Policy: c.policy}) })
	if err == nil {
		replayKernel(t, root, c, res)
	}
	return verifyOutcome(c, res, err)
}

// verifyOutcome renders a two-run result and applies authverify's kernel
// pins: unsound and error verdicts fail, and so does any verdict other than
// the one the catalog's ground truth predicts for the policy.
func verifyOutcome(c verifyCell, res contract.Result, err error) outcome {
	if err != nil {
		return outcome{line: fmt.Sprintf("verify kernel=%s policy=%s error=%q", c.kc.Name, c.policy, err),
			fail: fmt.Sprintf("kernel %s under %v: %v", c.kc.Name, c.policy, err)}
	}
	kinds := "none"
	if res.Contract != nil {
		kinds = res.Contract.KindsSummary()
	}
	o := outcome{
		line: fmt.Sprintf("verify kernel=%s policy=%s verdict=%s channels=%v cycles_a=%d cycles_b=%d contract=%s diff=%q",
			c.kc.Name, c.policy, res.Verdict, res.Channels, res.CyclesA, res.CyclesB, kinds, res.Diff),
		cycles: res.CyclesA + res.CyclesB,
	}
	kc, pt := c.kc, c.policy
	var bad bool
	switch {
	case res.Verdict == contract.VerdictUnsound || res.Verdict == contract.VerdictError:
		bad = true
	case !kc.BusLeak && kc.BusLeakUnder == nil && res.Verdict != contract.VerdictClean:
		bad = true
	case kc.BusLeakUnder != nil && !kc.LeaksUnder(pt) && res.Verdict != contract.VerdictImprecise:
		bad = true
	case kc.LeaksUnder(pt) && !pt.Obfuscate && res.Verdict != contract.VerdictLicensed:
		bad = true
	}
	if bad {
		o.fail = fmt.Sprintf("kernel pin violation %s under %v: %s (bus-leak=%v): %s", kc.Name, pt, res.Verdict, kc.LeaksUnder(pt), res.Diff)
	}
	return o
}
