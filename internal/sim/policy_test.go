package sim

import (
	"reflect"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/workload"
)

// paperPoints are the paper's seven evaluated control points, in
// presentation order, with the short names the legacy scheme flags used.
var paperPoints = []policy.ControlPoint{
	policy.Baseline, policy.ThenIssue, policy.ThenWrite, policy.ThenCommit,
	policy.ThenFetch, policy.CommitPlusFetch, policy.CommitPlusObfuscation,
}

var legacyNames = map[policy.ControlPoint]string{
	policy.Baseline:              "baseline",
	policy.ThenIssue:             "authen-then-issue",
	policy.ThenWrite:             "authen-then-write",
	policy.ThenCommit:            "authen-then-commit",
	policy.ThenFetch:             "authen-then-fetch",
	policy.CommitPlusFetch:       "commit+fetch",
	policy.CommitPlusObfuscation: "commit+obfuscation",
}

// legacyApply is the pre-refactor applyScheme switch, kept verbatim as the
// reference: the policy layer must translate each of the paper's seven
// points into exactly these component knobs.
func legacyApply(c *Config) {
	c.Sec.Authenticate = true
	c.Sec.Remap = false
	c.Pipeline.GateIssue = false
	c.Pipeline.GateCommit = false
	c.Pipeline.StoreWaitAuth = false
	c.Mem.GateFetch = false
	c.Mem.UseAtAuth = false
	switch c.Policy {
	case policy.Baseline:
		c.Sec.Authenticate = false
	case policy.ThenIssue:
		c.Pipeline.GateIssue = true
		c.Mem.UseAtAuth = true
	case policy.ThenWrite:
		c.Pipeline.StoreWaitAuth = true
	case policy.ThenCommit:
		c.Pipeline.GateCommit = true
	case policy.ThenFetch:
		c.Mem.GateFetch = true
	case policy.CommitPlusFetch:
		c.Pipeline.GateCommit = true
		c.Mem.GateFetch = true
	case policy.CommitPlusObfuscation:
		c.Pipeline.GateCommit = true
		c.Sec.Remap = true
	}
}

// TestPolicyKnobEquivalence pins that applyPolicy reproduces the
// pre-refactor knob settings for the paper's seven points, bit for bit —
// the config-level half of the cycle-identical equivalence guarantee.
func TestPolicyKnobEquivalence(t *testing.T) {
	for _, pt := range paperPoints {
		want := DefaultConfig()
		want.Policy = pt
		legacyApply(&want)

		got := DefaultConfig()
		got.Policy = pt
		got.applyPolicy()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: config diverges from legacy applyScheme:\ngot  %+v\nwant %+v", pt, got, want)
		}
	}
}

// TestSchemePolicyCycleIdentical is the equivalence pin for the legacy
// scheme names: a machine configured from a legacy short name (resolved
// through the policy registry) and one configured from the canonical point
// must be cycle-identical — same IPC, cycles, stop reason, and stall
// counters — for each of the paper's seven points on the workload smoke set.
func TestSchemePolicyCycleIdentical(t *testing.T) {
	smoke := []string{"mcfx", "swimx"}
	for _, name := range smoke {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		p, err := asm.Assemble(w.Source)
		if err != nil {
			t.Fatalf("assemble %s: %v", name, err)
		}
		for _, pt := range paperPoints {
			legacy, err := policy.Parse(legacyNames[pt])
			if err != nil {
				t.Fatalf("legacy name %q: %v", legacyNames[pt], err)
			}
			run := func(pt policy.ControlPoint) Result {
				t.Helper()
				cfg := DefaultConfig()
				cfg.MaxInsts = 20_000
				cfg.Policy = pt
				m, err := NewMachine(cfg, p)
				if err != nil {
					t.Fatalf("%s %v: %v", name, pt, err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("%s %v: %v", name, pt, err)
				}
				return res
			}
			viaName, viaPolicy := run(legacy), run(pt)
			if !reflect.DeepEqual(viaName, viaPolicy) {
				t.Errorf("%s %v: legacy-name and policy runs diverge:\nname   %+v\npolicy %+v",
					name, pt, viaName, viaPolicy)
			}
		}
	}
}

// TestConfigControlPointResolution pins policy resolution: the zero config
// is the baseline, and a set Policy resolves to itself, normalized.
func TestConfigControlPointResolution(t *testing.T) {
	var cfg Config
	if got := cfg.ControlPoint(); got != policy.Baseline {
		t.Errorf("zero config resolves to %v", got)
	}
	cfg.Policy = policy.Compose(policy.ThenWrite, policy.ThenFetch)
	if got := cfg.ControlPoint(); got != policy.Compose(policy.ThenWrite, policy.ThenFetch) {
		t.Errorf("composed policy resolves to %v", got)
	}
	// A denormalized literal (gate without Authenticate) resolves to the
	// normalized point.
	cfg.Policy = policy.ControlPoint{GateCommit: true}
	if got := cfg.ControlPoint(); got != policy.ThenCommit {
		t.Errorf("denormalized literal resolves to %v", got)
	}
}
