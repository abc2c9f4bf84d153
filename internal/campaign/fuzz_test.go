package campaign_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"authpoint/internal/contract"
	"authpoint/internal/diffcheck"
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
