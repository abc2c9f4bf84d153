package contract

import (
	"encoding/hex"
	"fmt"

	"authpoint/internal/analysis"
	"authpoint/internal/attack"
	"authpoint/internal/campaign"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// LeakSchema identifies the recorded two-run finding format.
const LeakSchema = "authverify/leak/v1"

// Leak is one recorded two-run contract check: everything needed to replay it
// byte-identically — the exact source, policy, and both secret images — plus
// the expected outcome. Unsound findings are recorded as Leaks by authverify;
// corpus entries pin expected verdicts (including "licensed") against model
// drift.
type Leak struct {
	Schema string `json:"schema"`
	// Note says what this leak records (origin, minimization status).
	Note string `json:"note,omitempty"`
	// Seed is the generator seed the source came from (0 = hand-written).
	Seed   int64  `json:"seed"`
	Policy string `json:"policy"`

	// Expected outcome: replay must reproduce every field exactly.
	Verdict  string   `json:"verdict"`
	Channels []string `json:"channels,omitempty"`
	Diff     string   `json:"diff,omitempty"`
	// ContractEntries and AddrVisible summarize the static contract the
	// dynamic observation was judged against.
	ContractEntries int    `json:"contract_entries"`
	AddrVisible     bool   `json:"addr_visible"`
	CyclesA         uint64 `json:"cycles_a"`
	CyclesB         uint64 `json:"cycles_b"`

	// SecretA and SecretB are the hex-encoded data images the two runs used.
	SecretA string `json:"secret_a"`
	SecretB string `json:"secret_b"`

	// Probe marks recordings that need the adversary's probe window mapped
	// (the attack-kernel corpus entries); SecretSymbols carries the explicit
	// secret symbols their analysis uses. Both are empty for generated
	// programs, so pre-existing recordings encode unchanged.
	Probe         bool     `json:"probe,omitempty"`
	SecretSymbols []string `json:"secret_symbols,omitempty"`

	Source string `json:"source"`
}

// NewLeak records a result (produced with default Options beyond policy and
// images) and its source.
func NewLeak(res Result, src, note string) *Leak {
	chans := make([]string, 0, len(res.Channels))
	for _, ch := range res.Channels {
		chans = append(chans, string(ch))
	}
	if len(chans) == 0 {
		chans = nil
	}
	entries, addrVis := 0, false
	if res.Contract != nil {
		entries = len(res.Contract.Entries)
		addrVis = res.Contract.AddrVisible
	}
	return &Leak{
		Schema:          LeakSchema,
		Note:            note,
		Seed:            res.Seed,
		Policy:          res.Policy.String(),
		Verdict:         string(res.Verdict),
		Channels:        chans,
		Diff:            res.Diff,
		ContractEntries: entries,
		AddrVisible:     addrVis,
		CyclesA:         res.CyclesA,
		CyclesB:         res.CyclesB,
		SecretA:         hex.EncodeToString(res.SecretA),
		SecretB:         hex.EncodeToString(res.SecretB),
		Source:          src,
	}
}

var leakCodec = campaign.Codec[Leak]{Schema: LeakSchema, Name: "contract: leak"}

// Encode renders the leak as canonical JSON (fixed field order, two-space
// indent, trailing newline). Replay compares encodings byte-for-byte.
func (l *Leak) Encode() []byte { return leakCodec.Encode(l) }

// DecodeLeak parses and schema-checks a leak file.
func DecodeLeak(data []byte) (*Leak, error) { return leakCodec.Decode(data) }

// LoadLeak reads a leak file from disk.
func LoadLeak(path string) (*Leak, error) { return leakCodec.Load(path) }

// WriteFile writes the canonical encoding to path.
func (l *Leak) WriteFile(path string) error { return leakCodec.Write(path, l) }

// Replay re-runs the recorded two-run check with the recorded images and
// verifies the outcome is byte-identical: re-recording the fresh result must
// reproduce the original file exactly. It returns the fresh result and an
// error naming the first mismatched field, if any.
func (l *Leak) Replay() (Result, error) {
	pol, err := policy.Parse(l.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("contract: leak policy: %w", err)
	}
	a, err1 := hex.DecodeString(l.SecretA)
	b, err2 := hex.DecodeString(l.SecretB)
	if err1 != nil || err2 != nil {
		return Result{}, fmt.Errorf("contract: leak secret images do not decode")
	}
	opt := Options{
		Policy: pol, Seed: l.Seed, SecretA: a, SecretB: b,
		Analysis: analysis.Options{SecretSymbols: l.SecretSymbols},
	}
	if l.Probe {
		opt.Regions = []sim.Region{{Start: attack.ProbeBase, Size: attack.ProbeSize}}
	}
	res := CheckProgram(l.Source, opt)
	fresh := NewLeak(res, l.Source, l.Note)
	fresh.Probe = l.Probe
	fresh.SecretSymbols = l.SecretSymbols
	if diff := leakCodec.Diff(l, fresh); diff != "" {
		return res, fmt.Errorf("contract: replay diverged from recording: %s", diff)
	}
	return res, nil
}

// MinimizeUnsound shrinks the source of an unsound finding to a minimal
// program that still yields an unsound verdict under the same policy and
// secret images. The watchdog is lowered so shrink candidates that spin
// forever fail fast instead of stalling the minimizer.
func MinimizeUnsound(src string, res Result) string {
	opt := Options{
		Policy:         res.Policy,
		Seed:           res.Seed,
		SecretA:        res.SecretA,
		SecretB:        res.SecretB,
		WatchdogCycles: 500_000,
	}
	return diffcheck.Minimize(src, func(s string) bool {
		return CheckProgram(s, opt).Verdict == VerdictUnsound
	})
}
