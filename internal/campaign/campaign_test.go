package campaign

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"authpoint/internal/telemetry"
)

type payload struct {
	Verdict string
	Cycles  uint64
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: Digest([]byte("prog")),
		Policy: "baseline", Options: "watchdog=1"}

	var got payload
	if ok, err := s.Get(k, &got); err != nil || ok {
		t.Fatalf("empty store Get = (%v, %v), want miss", ok, err)
	}
	want := payload{Verdict: "ok", Cycles: 42}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(k, &got); err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v), want hit", ok, err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if s.Hits() != 1 || s.Misses() != 1 || s.Puts() != 1 {
		t.Fatalf("counters hits=%d misses=%d puts=%d, want 1/1/1", s.Hits(), s.Misses(), s.Puts())
	}
}

// TestKeyIDSensitivity pins that every key field feeds the content address —
// a field change must address a different entry — and that tamper site is
// folded in only for tamper keys.
func TestKeyIDSensitivity(t *testing.T) {
	base := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o"}
	variants := []Key{
		{Check: "c/v2", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o"},
		{Check: "c/v1", Kind: "verify", ProgDigest: "aa", Policy: "p", Options: "o"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "bb", Policy: "p", Options: "o"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "q", Options: "o"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "x"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o", Tamper: true, Site: "entry"},
		{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o", Tamper: true, Site: "data"},
	}
	ids := map[string]Key{base.ID(): base}
	for _, v := range variants {
		id := v.ID()
		if prev, dup := ids[id]; dup {
			t.Fatalf("keys %+v and %+v share ID %s", prev, v, id)
		}
		ids[id] = v
	}
	// Concatenation attacks must not alias: shifting a byte across a field
	// boundary changes the ID because fields are length-prefixed.
	a := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "ab", Policy: "c", Options: "o"}
	b := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "a", Policy: "bc", Options: "o"}
	if a.ID() == b.ID() {
		t.Fatal("field-boundary shift aliased two keys")
	}
	// Site without tamper is not part of the address (non-tamper cells have
	// no site); canonical callers leave it empty.
	c := base
	c.Site = "entry"
	if c.ID() != base.ID() {
		t.Fatal("site changed the ID of a non-tamper key")
	}
}

func TestStoreCorruptEntryIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Check: "c/v1", Kind: "fuzz", ProgDigest: "aa", Policy: "p", Options: "o"}
	if err := s.Put(k, payload{Verdict: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k.ID()), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := s.Get(k, &got); err != nil || ok {
		t.Fatalf("corrupt entry Get = (%v, %v), want miss", ok, err)
	}
	// A key whose entry was written under different key fields (hash
	// collision, stale derivation) must also miss, not alias.
	k2 := k
	k2.Options = "other"
	if err := os.MkdirAll(s.dir+"/"+k2.ID()[:2], 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k2.ID()), mustEntry(t, k, payload{Verdict: "wrong"}), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Get(k2, &got); ok {
		t.Fatal("key-mismatched entry served as a hit")
	}
	// The cell re-simulates and overwrites cleanly.
	if err := s.Put(k, payload{Verdict: "ok"}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(k, &got); err != nil || !ok || got.Verdict != "ok" {
		t.Fatalf("overwrite after corruption: (%v, %v, %+v)", ok, err, got)
	}
}

func mustEntry(t *testing.T, k Key, v payload) []byte {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, v); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(k.ID()))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCompleted pins the checkpoint semantics: terminal verdicts are done,
// skipped and empty verdicts are not.
func TestCompleted(t *testing.T) {
	lf := &telemetry.LedgerFile{Records: []telemetry.Record{
		{Seq: 0, Kind: "fuzz", Policy: "p", Seed: 1, Verdict: "ok"},
		{Seq: 1, Kind: "fuzz", Policy: "p", Seed: 2, Verdict: telemetry.VerdictSkipped},
		{Seq: 2, Kind: "fuzz", Policy: "p", Seed: 3},
		{Seq: 3, Kind: "fuzz", Policy: "p", Seed: 4, Tamper: true, Site: "entry", Verdict: "contained"},
		{Seq: 4, Kind: "verify", Policy: "p", Seed: 1, Verdict: "clean"},
	}}
	done := Completed(lf)
	if len(done) != 3 {
		t.Fatalf("Completed returned %d cells, want 3: %v", len(done), done)
	}
	if v := done[CellID{Kind: "fuzz", Policy: "p", Seed: 1}]; v != "ok" {
		t.Fatalf("seed 1 verdict %q, want ok", v)
	}
	if v := done[CellID{Kind: "fuzz", Policy: "p", Seed: 4, Tamper: true, Site: "entry"}]; v != "contained" {
		t.Fatalf("tamper cell verdict %q, want contained", v)
	}
	if v := done[CellID{Kind: "verify", Policy: "p", Seed: 1}]; v != "clean" {
		t.Fatalf("verify cell verdict %q, want clean", v)
	}
	if _, ok := done[CellID{Kind: "fuzz", Policy: "p", Seed: 2}]; ok {
		t.Fatal("skipped cell counted as completed")
	}
}

func TestLoadCompleted(t *testing.T) {
	path := t.TempDir() + "/ledger.jsonl"
	l, err := telemetry.Create(path, telemetry.NewHeader("test", 1))
	if err != nil {
		t.Fatal(err)
	}
	l.ReserveSeq(2)
	l.Emit(telemetry.Record{Seq: 0, Kind: "fuzz", Policy: "p", Seed: 7, Verdict: "ok"})
	l.Emit(telemetry.Record{Seq: 1, Kind: "fuzz", Policy: "p", Seed: 8, Verdict: telemetry.VerdictSkipped})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done, err := LoadCompleted(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[CellID{Kind: "fuzz", Policy: "p", Seed: 7}] != "ok" {
		t.Fatalf("LoadCompleted = %v, want one ok cell", done)
	}
	// A ledger with a sequence hole is a corrupt checkpoint: resume must
	// refuse it rather than silently re-run (or skip) the lost cells.
	hole := t.TempDir() + "/hole.jsonl"
	l2, err := telemetry.Create(hole, telemetry.NewHeader("test", 1))
	if err != nil {
		t.Fatal(err)
	}
	l2.ReserveSeq(3)
	l2.Emit(telemetry.Record{Seq: 0, Kind: "fuzz", Policy: "p", Seed: 1, Verdict: "ok"})
	l2.Emit(telemetry.Record{Seq: 2, Kind: "fuzz", Policy: "p", Seed: 3, Verdict: "ok"})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCompleted(hole); err == nil {
		t.Fatal("ledger with a sequence hole accepted as a checkpoint")
	}
}

func TestPoolRunsEveryIndex(t *testing.T) {
	var hits [50]int32
	err := pool(context.Background(), 4, len(hits), func(ctx context.Context, i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestPoolParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := pool(ctx, 2, 100_000, func(ctx context.Context, i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100_000 {
		t.Fatalf("cancellation did not stop the feed: all %d indexes ran", n)
	}
}
