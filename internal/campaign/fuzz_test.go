package campaign_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/contract"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
)

// FuzzCodecDecode feeds arbitrary bytes to both artifact codecs (.repro and
// .leak): Decode must return an error or an artifact whose canonical
// encoding decodes again to the same encoding. The seeds are the checked-in
// corpora and ledgers.
func FuzzCodecDecode(f *testing.F) {
	for _, pattern := range []string{"../diffcheck/testdata/*.repro", "../contract/testdata/*.leak", "../telemetry/testdata/*.jsonl"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seeds match %s", pattern)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkStable(t, data, diffcheck.DecodeRepro, (*diffcheck.Repro).Encode)
		checkStable(t, data, contract.DecodeLeak, (*contract.Leak).Encode)
	})
}

// checkStable decodes data and, when it decodes, requires its canonical
// encoding to decode again to the same encoding.
func checkStable[T any](t *testing.T, data []byte, decode func([]byte) (*T, error), encode func(*T) []byte) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		return
	}
	enc := encode(v)
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
	}
	if got := encode(again); !bytes.Equal(got, enc) {
		t.Fatalf("encoding not stable\nfirst  %s\nsecond %s", enc, got)
	}
}

// storeKey is the key FuzzStoreDecode looks up; otherKey names another
// cell of the same program.
var (
	storeKey = campaign.Key{Check: diffcheck.CheckSchema, Kind: "fuzz", ProgDigest: campaign.Digest([]byte("halt")),
		Policy: policy.ThenCommit.String(), Options: "max_oracle=2000000 watchdog=0"}
	otherKey = campaign.Key{Check: diffcheck.CheckSchema, Kind: "fuzz", ProgDigest: campaign.Digest([]byte("halt")),
		Policy: policy.ThenCommit.String(), Options: "max_oracle=2000000 watchdog=0", Tamper: true, Site: "entry"}
)

// storeEntry mirrors the store's on-disk envelope.
type storeEntry struct {
	Schema string          `json:"schema"`
	Key    campaign.Key    `json:"key"`
	Result json.RawMessage `json:"result"`
}

// FuzzStoreDecode writes arbitrary bytes where the store keeps an entry and
// looks the entry up: Get must not fail or panic, and may hit only when the
// bytes are an intact envelope for exactly that key with a result, which is
// then what Get decoded. The seeds are real entries — the key's own, one
// stored under another key, truncations of both, and both with a null
// result.
func FuzzStoreDecode(f *testing.F) {
	dir := f.TempDir()
	s, err := campaign.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	res := diffcheck.Result{Policy: policy.ThenCommit, Verdict: diffcheck.VerdictOK, Reason: "halt", Cycles: 812, Insts: 3,
		OracleDigest: "ab", SimDigest: "ab"}
	for _, k := range []campaign.Key{storeKey, otherKey} {
		if err := s.Put(k, res); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(campaign.EntryPath(s, k))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-3])
		if i := bytes.Index(data, []byte(`"result":`)); i >= 0 {
			f.Add(append(bytes.Clone(data[:i]), `"result":null}`...))
		}
	}
	f.Add([]byte{})

	// Every input overwrites the one entry file: a fuzz worker runs its
	// inputs one at a time.
	path := campaign.EntryPath(s, storeKey)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got diffcheck.Result
		hit, err := s.Get(storeKey, &got)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !hit {
			return
		}
		var e storeEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Schema != campaign.EntrySchema || e.Key != storeKey {
			t.Fatalf("hit on an entry that is not an intact envelope for the key:\n%q", data)
		}
		var want diffcheck.Result
		if err := json.Unmarshal(e.Result, &want); err != nil || bytes.Equal(bytes.TrimSpace(e.Result), []byte("null")) || len(e.Result) == 0 {
			t.Fatalf("hit on an entry without a result:\n%q", data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Get decoded %+v, the entry holds %+v", got, want)
		}
	})
}
