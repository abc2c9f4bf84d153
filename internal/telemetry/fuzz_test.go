package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the ledger reader: it must return an
// error or a ledger that, written back out, re-reads identically. The seeds
// are the checked-in ledgers plus the replay artifacts, which are JSON but
// not ledgers.
func FuzzRead(f *testing.F) {
	for _, pattern := range []string{"testdata/*.jsonl", "../diffcheck/testdata/*.repro", "../contract/testdata/*.leak"} {
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
	f.Add([]byte(`{"schema":"` + LedgerSchema + `"}` + "\nnull\n\n{}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		lf, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		l := NewLedger(&buf)
		if err := l.WriteHeader(lf.Header); err != nil {
			t.Fatal(err)
		}
		for _, r := range lf.Records {
			l.Emit(r)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("written-back ledger does not re-read: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, lf) {
			t.Fatalf("ledger changed on re-read\nfirst  %+v\nsecond %+v", lf, again)
		}
	})
}
