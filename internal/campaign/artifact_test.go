package campaign

import (
	"path/filepath"
	"testing"
)

type testArtifact struct {
	Schema   string   `json:"schema"`
	Verdict  string   `json:"verdict"`
	Cycles   uint64   `json:"cycles"`
	Channels []string `json:"channels,omitempty"`
	Source   string   `json:"source"`
}

var testCodec = Codec[testArtifact]{Schema: "test/artifact/v1", Name: "test: artifact"}

func TestCodecRoundTrip(t *testing.T) {
	a := &testArtifact{Schema: testCodec.Schema, Verdict: "ok", Cycles: 42, Channels: []string{"addr"}, Source: "halt"}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := testCodec.Write(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := testCodec.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(testCodec.Encode(got)) != string(testCodec.Encode(a)) {
		t.Fatalf("round trip changed the encoding:\n%s\n%s", testCodec.Encode(got), testCodec.Encode(a))
	}
	if d := testCodec.Diff(a, got); d != "" {
		t.Fatalf("identical artifacts diff: %s", d)
	}

	for _, bad := range []string{"{", `{"schema":"other/v9","source":"halt"}`, `{"schema":"test/artifact/v1"}`} {
		if _, err := testCodec.Decode([]byte(bad)); err == nil {
			t.Errorf("%s decoded", bad)
		}
	}
}

// TestCodecDiff pins the mismatch report: the first differing field in
// encoding order, with JSON-rendered values, and absent omitempty fields
// named as such.
func TestCodecDiff(t *testing.T) {
	want := &testArtifact{Schema: testCodec.Schema, Verdict: "ok", Cycles: 42, Source: "halt"}
	got := *want
	got.Cycles, got.Channels = 43, []string{"addr", "timing"}
	if d, exp := testCodec.Diff(want, &got), "cycles = 43, recorded 42"; d != exp {
		t.Errorf("Diff = %q, want %q", d, exp)
	}
	got.Cycles = 42
	if d, exp := testCodec.Diff(want, &got), `channels = ["addr","timing"], recorded absent`; d != exp {
		t.Errorf("Diff = %q, want %q", d, exp)
	}
	got.Verdict = "detected"
	if d, exp := testCodec.Diff(want, &got), `verdict = "detected", recorded "ok"`; d != exp {
		t.Errorf("Diff = %q, want %q", d, exp)
	}
}
