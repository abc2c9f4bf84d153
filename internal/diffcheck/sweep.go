package diffcheck

import (
	"fmt"
	"strconv"
	"strings"

	"authpoint/internal/campaign"
	"authpoint/internal/obs"
	"authpoint/internal/telemetry"
)

// MaxSeedRange bounds how many seeds one -seeds flag may expand to. The
// explicit list is materialized up front, so an unbounded range would OOM the
// CLI before any work starts; 1<<24 (~16.7M) seeds is comfortably past the
// nightly tens-of-thousands shape while still only ~128MB of list.
const MaxSeedRange = 1 << 24

// ParseSeedRange parses an inclusive "lo:hi" seed-range flag into the
// explicit seed list — the -seeds grammar shared by the fuzzing and
// verification CLIs. A bare "42" is shorthand for "42:42".
func ParseSeedRange(s string) ([]int64, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seeds %q: want lo:hi or a single seed", s)
		}
		return []int64{v}, nil
	}
	l, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	h, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
	if err1 != nil || err2 != nil || h < l {
		return nil, fmt.Errorf("seeds %q: want lo:hi with hi >= lo", s)
	}
	// h-l+1 overflows int64 for wide ranges (e.g. the full int64 span),
	// flipping the make cap negative; compute the width in uint64, where
	// two's-complement subtraction is exact for any l <= h.
	if width := uint64(h) - uint64(l); width >= MaxSeedRange {
		return nil, fmt.Errorf("seeds %q: range spans more than %d seeds", s, MaxSeedRange)
	}
	out := make([]int64, 0, h-l+1)
	for v := l; v <= h; v++ {
		out = append(out, v)
	}
	return out, nil
}

// IsFinding reports whether a verdict is a finding. Tamper verdicts other
// than divergence are expected outcomes, not findings.
func IsFinding(v Verdict) bool { return v == VerdictDivergence || v == VerdictError }

// Campaign adapts the differential check to the campaign engine
// (campaign.Run): every cell checks its seed's generated program under the
// cell's policy and tamper site, with Options as the base options.
type Campaign struct{ Options Options }

// Kind labels fuzz ledger records and resume identities.
func (Campaign) Kind() string { return "fuzz" }

// Runner attaches the metrics sink and, when the cells repeat seeds (a cross
// campaign) and no oracle memo was supplied, a fresh memo, so the
// policy-independent oracle leg runs once per seed.
func (a Campaign) Runner(cells []campaign.Cell, sink func(*obs.Snapshot)) func(campaign.Cell) (Result, string) {
	opt := a.Options
	if sink != nil {
		opt.MetricsSink = sink
	}
	if opt.Oracle == nil && campaign.SeedsRepeat(cells) {
		opt.Oracle = NewOracleMemo(0)
	}
	return func(c campaign.Cell) (Result, string) {
		o := opt
		o.Policy, o.Tamper, o.TamperSite = c.Policy, c.Tamper, TamperSite(c.Site)
		return CheckSeed(c.Seed, o)
	}
}

// Outcome renders a result's ledger fields.
func (Campaign) Outcome(r Result) telemetry.Record {
	return telemetry.Record{Verdict: string(r.Verdict), SimCycles: r.Cycles, Insts: r.Insts, Cached: r.Cached}
}

// IsFinding reports whether a verdict string is a finding.
func (Campaign) IsFinding(v string) bool { return IsFinding(Verdict(v)) }

// ReproName is the file name a finding is recorded under:
// seed<N>-<policy>.repro, with -tamper for an entry-site tamper and
// -tamper-<site> for every other site, so one campaign's findings at
// different sites never overwrite each other.
func ReproName(r Result) string {
	name := fmt.Sprintf("seed%d-%s", r.Seed, r.Policy)
	if r.Tamper {
		name += "-tamper"
		if r.Site != "" && r.Site != SiteEntry {
			name += "-" + string(r.Site)
		}
	}
	return name + ".repro"
}
