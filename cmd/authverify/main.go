// Command authverify machine-checks leakage contracts by two-run secret
// non-interference: for every (seed, policy) cell it derives the static
// contract of the generated program, runs the program twice on data images
// that differ only in the secret bytes, and requires the bus-adversary views
// to differ only where the contract licenses it. It also sweeps the attack
// kernel catalog the same way, asserting every known bus-observed exploit
// leak is licensed by its contract.
//
// Verdicts per cell:
//
//	clean      views identical, contract empty (nothing claimed, nothing seen)
//	imprecise  views identical, contract non-empty (licensed leak never realized)
//	licensed   views differ only on licensed channels (the sound case)
//	unsound    views differ on an unlicensed channel — a FINDING: a dynamic
//	           leak the static analysis missed
//	error      the check could not run
//
// Usage:
//
//	authverify [flags]                 # seed sweep + kernel catalog
//	authverify -replay file.leak ...   # deterministic replay
//
// Examples:
//
//	authverify -seeds 1:200 -policies full -out findings/
//	authverify -seeds 1:50 -policies ci -mode cross -budget 2m
//	authverify -kernels=false -seeds 1:1000 -parallel 4
//
// The exit status is 0 when every cell is clean/imprecise/licensed (every
// replay matches), 1 when any unsound verdict, kernel pin violation, or
// replay mismatch is found, and 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"time"

	"authpoint/internal/campaign"
	"authpoint/internal/campaign/cli"
	"authpoint/internal/contract"
	"authpoint/internal/policy"
)

func main() {
	kernels := flag.Bool("kernels", true, "also check the attack-kernel catalog across the lattice")
	cli.Main(cli.Tool[contract.Result]{
		Name:         "authverify",
		Policies:     "full",
		Ext:          ".leak",
		ReplayFlag:   "replay",
		Verb:         "sweeping",
		MinimizeHelp: "shrink unsound programs to minimal reproducers before recording",
		BudgetHelp:   "wall-clock bound for the seed sweep (0 = none); cells not reached are skipped, not failed",
		Verdicts: []string{string(contract.VerdictClean), string(contract.VerdictImprecise),
			string(contract.VerdictLicensed), string(contract.VerdictUnsound), string(contract.VerdictError)},

		Check: func(store *campaign.Store) campaign.Check[contract.Result] {
			return contract.Campaign{Options: contract.Options{Cache: store}}
		},
		CellLine: func(r contract.Result) string {
			return fmt.Sprintf("seed %-6d %-45v %s", r.Seed, r.Policy, r.Verdict)
		},
		Finding: func(f campaign.Finding[contract.Result]) string {
			res := f.Result
			return fmt.Sprintf("seed %d under %v: %s: %s", res.Seed, res.Policy, res.Verdict, res.Diff)
		},
		Record: func(f campaign.Finding[contract.Result], minimize bool) (string, []byte) {
			res, src := f.Result, f.Source
			if minimize && res.Verdict == contract.VerdictUnsound {
				src = contract.MinimizeUnsound(src, res)
			}
			// Re-check the (possibly shrunk) source with the recorded images
			// so the .leak file replays byte-identically.
			final := contract.CheckProgram(src, contract.Options{
				Policy: res.Policy, Seed: res.Seed, SecretA: res.SecretA, SecretB: res.SecretB,
			})
			return fmt.Sprintf("seed%d-%s.leak", res.Seed, res.Policy),
				contract.NewLeak(final, src, "authverify finding: "+res.Diff).Encode()
		},
		Replay: func(path string) (string, error, error) {
			l, err := contract.LoadLeak(path)
			if err != nil {
				return "", nil, err
			}
			res, mismatch := l.Replay()
			return fmt.Sprintf("%s (%d/%d cycles)", res.Verdict, res.CyclesA, res.CyclesB), mismatch, nil
		},
		After: func(_ []int64, _ []policy.ControlPoint, verbose bool) bool {
			return *kernels && runKernels(verbose)
		},
	})
}

// runKernels checks the attack-kernel catalog over each kernel's lattice
// slice against the catalog pin (contract.KernelCase.Pin) — the CLI edition
// of the pin TestKernelLeaksLicensed enforces.
func runKernels(verbose bool) bool {
	cases, err := contract.Catalog()
	if err != nil {
		cli.Fatalf("authverify", "%v", err)
	}
	bad := false
	checked := 0
	start := time.Now()
	for _, kc := range cases {
		for _, pt := range kc.Policies() {
			res, err := contract.CheckKernel(kc, contract.Options{Policy: pt})
			if err != nil {
				bad = true
				fmt.Printf("authverify: KERNEL %s under %v: %v\n", kc.Name, pt, err)
				continue
			}
			checked++
			if verbose {
				fmt.Printf("kernel %-22s %-45v %s\n", kc.Name, pt, res.Verdict)
			}
			if err := kc.Pin(pt, res); err != nil {
				bad = true
				fmt.Printf("authverify: KERNEL PIN VIOLATION %v\n", err)
			}
		}
	}
	fmt.Printf("authverify: kernel catalog: %d kernels, %d checks in %v\n",
		len(cases), checked, time.Since(start).Round(time.Millisecond))
	return bad
}
