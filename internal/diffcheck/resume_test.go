package diffcheck

import (
	"context"
	"crypto/sha256"
	"reflect"
	"strings"
	"sync"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/campaign"
	"authpoint/internal/policy"
	"authpoint/internal/telemetry"
)

func TestParseSeedRange(t *testing.T) {
	got, err := ParseSeedRange("1:3")
	if err != nil || !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("1:3 = (%v, %v)", got, err)
	}
	got, err = ParseSeedRange("42")
	if err != nil || !reflect.DeepEqual(got, []int64{42}) {
		t.Fatalf("bare 42 = (%v, %v), want the single-seed shorthand", got, err)
	}
	got, err = ParseSeedRange(" 5 : 5 ")
	if err != nil || !reflect.DeepEqual(got, []int64{5}) {
		t.Fatalf("padded 5:5 = (%v, %v)", got, err)
	}
	for _, bad := range []string{"", "abc", "3:1", "1:", ":3", "1:2:3"} {
		if _, err := ParseSeedRange(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestParseSeedRangeOverflow pins the satellite fix: the full int64 span used
// to overflow h-l+1 into a negative make cap (a panic); now it is a clean
// range-too-large error, as is anything past MaxSeedRange.
func TestParseSeedRangeOverflow(t *testing.T) {
	wide := []string{
		"-9223372036854775808:9223372036854775807", // full int64 span
		"0:9223372036854775807",
		"-1:16777215", // width 1<<24, one past the cap
	}
	for _, s := range wide {
		got, err := ParseSeedRange(s)
		if err == nil {
			t.Fatalf("%q accepted (%d seeds)", s, len(got))
		}
		if !strings.Contains(err.Error(), "range spans") {
			t.Fatalf("%q: error %v does not name the range cap", s, err)
		}
	}
}

// TestCheckCacheBitIdentity pins the cache determinism contract across the CI
// policy set: a cached result equals the fresh one field for field (modulo
// the Cached marker), and a second sweep over a warm cache simulates nothing.
func TestCheckCacheBitIdentity(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pols, err := policy.ParseSet("ci")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3}
	for _, seed := range seeds {
		for _, pt := range pols {
			opt := Options{Policy: pt, Cache: store}
			fresh, _ := CheckSeed(seed, opt)
			if fresh.Cached {
				t.Fatalf("seed %d under %v: first check claims cached", seed, pt)
			}
			cached, _ := CheckSeed(seed, opt)
			if !cached.Cached {
				t.Fatalf("seed %d under %v: second check missed the cache", seed, pt)
			}
			cached.Cached = false
			if !reflect.DeepEqual(fresh, cached) {
				t.Fatalf("seed %d under %v: cached result diverged:\nfresh:  %+v\ncached: %+v",
					seed, pt, fresh, cached)
			}
		}
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(seeds) * len(pols))
	if store.Hits() != want || store.Puts() != want {
		t.Fatalf("cache hits=%d puts=%d, want %d each", store.Hits(), store.Puts(), want)
	}
}

// TestSweepCachedSecondRun is the campaign-level acceptance shape: the same
// cross sweep run twice against one cache directory simulates zero cells the
// second time, and every second-run ledger record is marked cached with a
// verdict identical to the first run's.
func TestSweepCachedSecondRun(t *testing.T) {
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenFetch}
	cells, _ := campaign.Cells("cross", []int64{10, 11, 12}, pols)
	dir := t.TempDir()

	sweepLedger := func(path string) *telemetry.LedgerFile {
		t.Helper()
		l, err := telemetry.Create(path, telemetry.NewHeader("test", 0))
		if err != nil {
			t.Fatal(err)
		}
		sw := campaign.Sweep{Parallelism: 2, Ledger: l}
		if _, err := campaign.Run(context.Background(), Campaign{Options{Cache: store}}, cells, sw); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		lf, err := telemetry.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lf.SortBySeq()
		return lf
	}
	lf1 := sweepLedger(dir + "/cold.jsonl")
	lf2 := sweepLedger(dir + "/warm.jsonl")

	for i, r := range lf2.Records {
		if !r.Cached {
			t.Fatalf("warm-cache record %d (seed %d, %s) not served from cache", i, r.Seed, r.Policy)
		}
		a, b := lf1.Records[i].Canonical(), r.Canonical()
		b.Cached = false
		a.Cached = false
		if a != b {
			t.Fatalf("record %d drifted across cache: cold %+v, warm %+v", i, a, b)
		}
	}
	if store.Hits() != int64(len(cells)) {
		t.Fatalf("warm sweep hit the cache %d times, want %d", store.Hits(), len(cells))
	}
}

// TestOracleMemo pins the memoization observable: a cross-shaped sweep pays
// the policy-independent oracle leg once per (seed, pac-mode), not once per
// cell.
func TestOracleMemo(t *testing.T) {
	memo := NewOracleMemo(0)
	pols := []policy.ControlPoint{policy.Baseline, policy.ThenCommit, policy.CommitPlusFetch}
	seeds := []int64{20, 21}
	for _, seed := range seeds {
		for _, pt := range pols {
			res, _ := CheckSeed(seed, Options{Policy: pt, Oracle: memo})
			if res.Verdict != VerdictOK {
				t.Fatalf("seed %d under %v: %s (%s)", seed, pt, res.Verdict, res.Divergence)
			}
		}
	}
	// All three policies share pacmac mode off, so each seed runs the oracle
	// exactly once.
	if want := uint64(len(seeds)); memo.Misses() != want {
		t.Fatalf("oracle ran %d times, want once per seed (%d)", memo.Misses(), want)
	}
	if want := uint64(len(seeds) * (len(pols) - 1)); memo.Hits() != want {
		t.Fatalf("memo hits %d, want %d", memo.Hits(), want)
	}
}

// TestOracleMemoModeSplit pins that the memo keys on the architectural PAC
// mode: policies that change the oracle's pointer-authentication behaviour
// must not share entries.
func TestOracleMemoModeSplit(t *testing.T) {
	memo := NewOracleMemo(0)
	src := GenProgram(30)
	if res := Check(src, Options{Policy: policy.Baseline, Oracle: memo}); res.Verdict != VerdictOK {
		t.Fatalf("baseline: %s (%s)", res.Verdict, res.Divergence)
	}
	misses := memo.Misses()
	if res := Check(src, Options{Policy: policy.ThenPAC, Oracle: memo}); res.Verdict != VerdictOK {
		t.Fatalf("pac-poison: %s (%s)", res.Verdict, res.Divergence)
	}
	if memo.Misses() != misses+1 {
		t.Fatalf("a PAC-mode change reused a non-PAC oracle run (misses %d -> %d)", misses, memo.Misses())
	}
}

// TestOracleMemoSharesProgram pins the program half of the memo: cells of
// one source checked at once all get the same assembled program, and the
// memo keeps at most memoPrograms programs.
func TestOracleMemoSharesProgram(t *testing.T) {
	memo := NewOracleMemo(0)
	src := GenProgram(31)
	sum := sha256.Sum256([]byte(src))
	progs := make([]*asm.Program, 4)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res := Check(src, Options{Policy: policy.ThenCommit, Oracle: memo}); res.Verdict != VerdictOK {
				t.Errorf("%s (%s)", res.Verdict, res.Divergence)
			}
			progs[i], _ = memo.assemble(sum, src)
		}(i)
	}
	wg.Wait()
	for _, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatal("cells of one source got different assembled programs")
		}
	}
	for seed := int64(100); seed < 100+2*memoPrograms; seed++ {
		s := GenProgram(seed)
		if _, err := memo.assemble(sha256.Sum256([]byte(s)), s); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(memo.progs.m); n != memoPrograms {
		t.Fatalf("memo holds %d programs, want %d", n, memoPrograms)
	}
}
