package diffcheck

import (
	"fmt"

	"authpoint/internal/campaign"
	"authpoint/internal/policy"
)

// ReproSchema identifies the deterministic replay file format.
const ReproSchema = "authfuzz/repro/v1"

// Repro is one recorded differential check: everything needed to replay it
// byte-identically — the exact source (not the seed: the generator may
// evolve), the policy, the tamper flag — plus the expected outcome. Corpus
// entries under testdata/ are Repros with an expected verdict of "ok" (or a
// tamper verdict): they pin past bug classes dead. Divergence repros are
// what authfuzz writes when it finds a new bug.
type Repro struct {
	Schema string `json:"schema"`
	// Note says what this repro pins (bug class, origin).
	Note string `json:"note,omitempty"`
	// Seed is the generator seed the source came from (0 = hand-written).
	Seed   int64  `json:"seed"`
	Policy string `json:"policy"`
	Tamper bool   `json:"tamper,omitempty"`
	// TamperSite is the tamper site (one of Sites(): entry, data, mac, ctr,
	// tree). Empty means entry, so pre-existing corpus files decode (and
	// re-encode) unchanged.
	TamperSite string `json:"tamper_site,omitempty"`

	// Expected outcome: replay must reproduce every field exactly.
	Verdict      string `json:"verdict"`
	Divergence   string `json:"divergence,omitempty"`
	Reason       string `json:"reason"`
	Cycles       uint64 `json:"cycles"`
	Insts        uint64 `json:"insts"`
	OracleDigest string `json:"oracle_digest"`
	SimDigest    string `json:"sim_digest"`

	Source string `json:"source"`
}

// NewRepro records a result (produced with default Options — mutations are
// not replayable) and its source as a repro.
func NewRepro(res Result, src, note string) *Repro {
	// Entry is the default site; recording it as "" keeps entry-site repro
	// files (the whole pre-site corpus) byte-identical across replay.
	site := string(res.Site)
	if !res.Tamper || res.Site == SiteEntry {
		site = ""
	}
	return &Repro{
		Schema:       ReproSchema,
		Note:         note,
		Seed:         res.Seed,
		Policy:       res.Policy.String(),
		Tamper:       res.Tamper,
		TamperSite:   site,
		Verdict:      string(res.Verdict),
		Divergence:   res.Divergence,
		Reason:       res.Reason,
		Cycles:       res.Cycles,
		Insts:        res.Insts,
		OracleDigest: res.OracleDigest,
		SimDigest:    res.SimDigest,
		Source:       src,
	}
}

var reproCodec = campaign.Codec[Repro]{Schema: ReproSchema, Name: "diffcheck: repro"}

// Encode renders the repro as canonical JSON (fixed field order, two-space
// indent, trailing newline). Replay compares encodings byte-for-byte.
func (r *Repro) Encode() []byte { return reproCodec.Encode(r) }

// DecodeRepro parses and schema-checks a repro file.
func DecodeRepro(data []byte) (*Repro, error) { return reproCodec.Decode(data) }

// LoadRepro reads a repro file from disk.
func LoadRepro(path string) (*Repro, error) { return reproCodec.Load(path) }

// WriteFile writes the canonical encoding to path.
func (r *Repro) WriteFile(path string) error { return reproCodec.Write(path, r) }

// Replay re-runs the recorded program under the recorded policy and tamper
// flag and verifies the outcome is byte-identical: re-recording the fresh
// result must reproduce the original file exactly (same verdict, stop
// reason, cycle and instruction counts, and state digests). It returns the
// fresh result and an error naming the first mismatched field, if any.
func (r *Repro) Replay() (Result, error) {
	pol, err := policy.Parse(r.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("diffcheck: repro policy: %w", err)
	}
	res := Check(r.Source, Options{Policy: pol, Tamper: r.Tamper, TamperSite: TamperSite(r.TamperSite)})
	res.Seed = r.Seed
	if diff := reproCodec.Diff(r, NewRepro(res, r.Source, r.Note)); diff != "" {
		return res, fmt.Errorf("diffcheck: replay diverged from recording: %s", diff)
	}
	return res, nil
}
