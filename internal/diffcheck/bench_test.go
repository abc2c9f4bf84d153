package diffcheck

import (
	"testing"

	"authpoint/internal/policy"
)

// BenchmarkCheckCell runs one differential check the way the cells of a
// cross campaign after a program's first run: the program's assembly and
// oracle run come from a shared memo, and its machines from the
// sealed-layout cache. Plain is the untampered cell, tampered flips the
// entry line.
func BenchmarkCheckCell(b *testing.B) {
	src := GenProgram(7)
	for _, tamper := range []bool{false, true} {
		name := "plain"
		if tamper {
			name = "tampered"
		}
		b.Run(name, func(b *testing.B) {
			opt := Options{Policy: policy.ThenCommit, Tamper: tamper, Oracle: NewOracleMemo(0)}
			if r := Check(src, opt); IsFinding(r.Verdict) || r.Verdict == VerdictError {
				b.Fatalf("%s: %s", r.Verdict, r.Divergence)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Check(src, opt)
			}
		})
	}
}
