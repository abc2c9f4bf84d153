// Command authfuzz hunts correctness bugs in the timed simulator by
// differential fuzzing: seed-deterministic random programs run on the
// out-of-order machine and on the in-order oracle, across the
// authentication control-point lattice, and every piece of architectural
// state is diffed. Tamper mode flips a bit in the encrypted image and
// asserts the containment invariants of gated policies; monotone mode
// asserts the metamorphic timing invariant (removing stall gates never
// costs cycles). Divergences are shrunk to minimal programs and written as
// deterministic .repro files that replay byte-identically.
//
// Usage:
//
//	authfuzz [flags]                  # fuzz sweep
//	authfuzz -repro file.repro ...    # deterministic replay
//
// Examples:
//
//	authfuzz -seeds 1:500 -policies ci -tamper -out findings/
//	authfuzz -seeds 1:50 -policies full -mode cross -monotone
//	authfuzz -repro internal/diffcheck/testdata/s2l-forwarding.repro
//
// The exit status is 0 when every check is clean (every replay matches), 1
// when any divergence, invariant violation, or replay mismatch is found,
// and 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"slices"

	"authpoint/internal/campaign"
	"authpoint/internal/campaign/cli"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
)

func main() {
	var (
		tamper   = flag.Bool("tamper", false, "also run every cell with a tampered line and check containment invariants")
		tamperAt = flag.String("tamper-site", "entry", "tamper site: entry (first instruction line), data (first data-segment line), mac (stored line MAC), ctr (write counter), or tree (integrity-tree leaf)")
		monotone = flag.Bool("monotone", false, "per seed, check cycle monotonicity across the policy set (runs every policy per seed)")
	)
	cli.Main(cli.Tool[diffcheck.Result]{
		Name:         "authfuzz",
		Policies:     "ci",
		Ext:          ".repro",
		ReplayFlag:   "repro",
		Verb:         "fuzzing",
		MinimizeHelp: "shrink divergent programs to minimal repros before recording",
		BudgetHelp:   "wall-clock bound for the sweep (0 = none); cells not reached are skipped, not failed",
		Verdicts: []string{string(diffcheck.VerdictOK), string(diffcheck.VerdictContained), string(diffcheck.VerdictDetected),
			string(diffcheck.VerdictUndetected), string(diffcheck.VerdictDivergence), string(diffcheck.VerdictError)},

		Check: func(store *campaign.Store) campaign.Check[diffcheck.Result] {
			return diffcheck.Campaign{Options: diffcheck.Options{Cache: store}}
		},
		Cells: func(cells []campaign.Cell) ([]campaign.Cell, string, error) {
			if !slices.Contains(diffcheck.Sites(), diffcheck.TamperSite(*tamperAt)) {
				return nil, "", fmt.Errorf("tamper-site %q: want one of %v", *tamperAt, diffcheck.Sites())
			}
			if *tamper {
				cells = append(cells, campaign.Tampered(cells, *tamperAt)...)
			}
			return cells, fmt.Sprintf(", tamper %v", *tamper), nil
		},
		CellLine: func(r diffcheck.Result) string {
			return fmt.Sprintf("seed %-6d %-45v tamper=%-5v %s", r.Seed, r.Policy, r.Tamper, r.Verdict)
		},
		Finding: func(f campaign.Finding[diffcheck.Result]) string {
			res := f.Result
			tag := fmt.Sprint(res.Tamper)
			if res.Tamper && res.Site != "" {
				tag = string(res.Site)
			}
			return fmt.Sprintf("seed %d under %v tamper=%s: %s: %s", res.Seed, res.Policy, tag, res.Verdict, res.Divergence)
		},
		Record: func(f campaign.Finding[diffcheck.Result], minimize bool) (string, []byte) {
			res, src := f.Result, f.Source
			if minimize && res.Verdict == diffcheck.VerdictDivergence {
				opt := diffcheck.Options{Policy: res.Policy, Tamper: res.Tamper, TamperSite: res.Site, WatchdogCycles: 500_000}
				src = diffcheck.Minimize(src, func(s string) bool {
					return diffcheck.Check(s, opt).Verdict == diffcheck.VerdictDivergence
				})
			}
			// Re-check with default options so the recording replays with
			// defaults.
			final := diffcheck.Check(src, diffcheck.Options{Policy: res.Policy, Tamper: res.Tamper, TamperSite: res.Site})
			final.Seed = res.Seed
			return diffcheck.ReproName(res), diffcheck.NewRepro(final, src, "authfuzz finding: "+res.Divergence).Encode()
		},
		Replay: func(path string) (string, error, error) {
			r, err := diffcheck.LoadRepro(path)
			if err != nil {
				return "", nil, err
			}
			res, mismatch := r.Replay()
			return fmt.Sprintf("%s (%d cycles, %d insts)", res.Verdict, res.Cycles, res.Insts), mismatch, nil
		},
		After: func(seeds []int64, pols []policy.ControlPoint, verbose bool) bool {
			return *monotone && runMonotone(seeds, pols, verbose)
		},
	})
}

// runMonotone checks, per seed, that removing stall gates never costs cycles
// across the policy set.
func runMonotone(seeds []int64, pols []policy.ControlPoint, verbose bool) bool {
	bad := false
	for _, seed := range seeds {
		src := diffcheck.GenProgram(seed)
		results, viols := diffcheck.CheckMonotone(src, pols, diffcheck.Options{})
		for _, r := range results {
			if diffcheck.IsFinding(r.Verdict) {
				bad = true
				fmt.Printf("authfuzz: FINDING seed %d under %v: %s: %s\n", seed, r.Policy, r.Verdict, r.Divergence)
			}
		}
		for _, v := range viols {
			bad = true
			fmt.Printf("authfuzz: MONOTONE seed %d: %s\n", seed, v)
		}
		if verbose {
			fmt.Printf("seed %-6d monotone over %d policies: %d violations\n", seed, len(pols), len(viols))
		}
	}
	return bad
}
