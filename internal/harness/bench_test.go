package harness

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// BenchmarkAssemble measures assembling the full 18-kernel catalog from
// source — the cost the per-process image cache pays once instead of once
// per sweep cell.
func BenchmarkAssemble(b *testing.B) {
	all := workload.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range all {
			if _, err := asm.Assemble(w.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(all)), "kernels")
}

// BenchmarkMeasureCell measures one warmup+measure sweep cell end to end
// (assembly amortized through the image cache, as in production sweeps).
func BenchmarkMeasureCell(b *testing.B) {
	w, ok := workload.ByName("swimx")
	if !ok {
		b.Fatal("missing workload")
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	spec := Spec{Workload: w, Config: cfg, WarmupInsts: 4_000, MeasureInsts: 12_000}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := Measure(spec)
		if err != nil {
			b.Fatal(err)
		}
		cycles += m.Result.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}
