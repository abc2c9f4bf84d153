package contract

import (
	"authpoint/internal/campaign"
	"authpoint/internal/obs"
	"authpoint/internal/telemetry"
)

// IsFinding reports whether a verdict is a finding. Licensed and imprecise
// are expected outcomes of a conservative analysis, not findings.
func IsFinding(v Verdict) bool { return v == VerdictUnsound || v == VerdictError }

// Campaign adapts the two-run check to the campaign engine (campaign.Run):
// every cell checks its seed's generated secret-mode program under the
// cell's policy, with Options as the base options.
type Campaign struct{ Options Options }

// Kind labels verify ledger records and resume identities.
func (Campaign) Kind() string { return "verify" }

// Runner attaches the metrics sink to the base options.
func (a Campaign) Runner(_ []campaign.Cell, sink func(*obs.Snapshot)) func(campaign.Cell) (Result, string) {
	opt := a.Options
	if sink != nil {
		opt.MetricsSink = sink
	}
	return func(c campaign.Cell) (Result, string) {
		o := opt
		o.Policy = c.Policy
		return CheckSeed(c.Seed, o)
	}
}

// Outcome renders a result's ledger fields; a cell's simulated work is both
// runs' cycles.
func (Campaign) Outcome(r Result) telemetry.Record {
	return telemetry.Record{Verdict: string(r.Verdict), SimCycles: r.CyclesA + r.CyclesB, Cached: r.Cached}
}

// IsFinding reports whether a verdict string is a finding.
func (Campaign) IsFinding(v string) bool { return IsFinding(Verdict(v)) }
