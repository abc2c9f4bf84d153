// Benchmarks that regenerate the paper's tables and figures. Each benchmark
// drives the same experiment code as cmd/authbench, on the quick workload
// subset so `go test -bench=.` terminates in minutes; run cmd/authbench for
// the full 18-workload sweeps. Custom metrics report the figures' headline
// numbers (mean normalized IPC per scheme, speedups over then-issue,
// recovered secret bits) so the benchmark output itself reads like the
// paper's evaluation.
package authpoint_test

import (
	"fmt"
	"runtime"
	"testing"

	"authpoint"
	"authpoint/internal/experiments"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// quick returns the benchmark harness's own sweep parameters: a 4-kernel
// subset at short windows, so `go test -bench=.` regenerates every figure's
// shape in minutes. cmd/authbench runs the full 18-kernel versions.
func quick() experiments.Params {
	p := experiments.QuickParams()
	p.Workloads = p.Workloads[:4] // mcfx, twolfx, gccx, swimx
	p.Warmup, p.Measure = 8_000, 25_000
	return p
}

// BenchmarkTable1LatencyGap regenerates Table 1: the decrypt/verify latency
// gap under [counter mode + HMAC] vs [CBC + CBC-MAC].
func BenchmarkTable1LatencyGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].Gap), "ctr+hmac-gap-cycles")
			b.ReportMetric(float64(rows[1].Gap), "cbc-first-chunk-gap-cycles")
		}
	}
}

// BenchmarkTable2SecurityMatrix regenerates Table 2 by running the exploit
// suite against every scheme.
func BenchmarkTable2SecurityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			secure := 0
			for _, r := range rows {
				if r.PreventsFetchLeak {
					secure++
				}
			}
			b.ReportMetric(float64(secure), "schemes-preventing-fetch-leak")
		}
	}
}

// BenchmarkFig6DependentFetch regenerates the Figure 6 timeline comparison.
func BenchmarkFig6DependentFetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].SecondMinus1), "then-issue-fetch-gap")
			b.ReportMetric(float64(rows[1].SecondMinus1), "then-fetch-fetch-gap")
		}
	}
}

func reportSweep(b *testing.B, sw *experiments.Sweep) {
	b.Helper()
	for _, s := range sw.Policies {
		b.ReportMetric(sw.MeanNormalized(s), "nIPC/"+short(s))
	}
}

func short(p policy.ControlPoint) string {
	switch p {
	case policy.ThenIssue:
		return "issue"
	case policy.ThenWrite:
		return "write"
	case policy.ThenCommit:
		return "commit"
	case policy.ThenFetch:
		return "fetch"
	case policy.CommitPlusFetch:
		return "c+f"
	case policy.CommitPlusObfuscation:
		return "c+obf"
	}
	return p.String()
}

// BenchmarkFig7NormalizedIPC regenerates the Figure 7 family (normalized
// IPC of the six schemes) for both L2 sizes on the quick subset.
func BenchmarkFig7NormalizedIPC(b *testing.B) {
	for _, l2 := range []struct {
		name string
		size int
		lat  int
	}{{"256KB", 256 << 10, 4}, {"1MB", 1 << 20, 8}} {
		b.Run(l2.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := quick()
				sw, err := experiments.RunSweep("fig7", p, experiments.PerfPolicies,
					func(c *sim.Config) { c.Mem.L2B = l2.size; c.Mem.L2Lat = l2.lat })
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					reportSweep(b, sw)
				}
			}
		})
	}
}

// BenchmarkFig8Speedups regenerates Figure 8: IPC speedups over
// authen-then-issue at 256KB L2.
func BenchmarkFig8Speedups(b *testing.B) {
	schemes := []policy.ControlPoint{policy.ThenIssue, policy.ThenWrite, policy.ThenCommit, policy.CommitPlusFetch}
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunSweep("fig8", quick(), schemes, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rows := sw.Speedups(schemes[1:])
			for _, s := range schemes[1:] {
				sum := 0.0
				for _, r := range rows {
					sum += r.Speedup[s]
				}
				b.ReportMetric(sum/float64(len(rows)), "speedup/"+short(s))
			}
		}
	}
}

// BenchmarkFig9RemapCache regenerates Figure 9: normalized IPC of
// obfuscation+commit across re-map cache sizes.
func BenchmarkFig9RemapCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9(quick(), []int{64 << 10, 256 << 10, 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range pts {
				b.ReportMetric(pt.Mean, fmt.Sprintf("nIPC/%dKB", pt.RemapCacheB>>10))
			}
		}
	}
}

// BenchmarkFig10SmallRUU regenerates Figures 10/11: the 64-entry RUU study.
func BenchmarkFig10SmallRUU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.Fig10(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSweep(b, sw)
		}
	}
}

// BenchmarkFig12MACTree regenerates Figures 12/13: MAC-tree authentication.
func BenchmarkFig12MACTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sw, err := experiments.Fig12(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSweep(b, sw)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// cycles per wall second) — the practical cost of using this library.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, ok := authpoint.WorkloadByName("swimx")
	if !ok {
		b.Fatal("missing workload")
	}
	prog, err := authpoint.Assemble(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := authpoint.DefaultConfig()
		cfg.Policy = authpoint.PolicyThenCommit
		cfg.MaxInsts = 50_000
		m, err := authpoint.NewMachine(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// benchSim runs the BenchmarkSimulatorThroughput configuration with an
// optional observability hub attached.
func benchSim(b *testing.B, attach func(*sim.Machine)) {
	b.Helper()
	w, ok := authpoint.WorkloadByName("swimx")
	if !ok {
		b.Fatal("missing workload")
	}
	prog, err := authpoint.Assemble(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Policy = policy.ThenCommit
		cfg.MaxInsts = 50_000
		m, err := sim.NewMachine(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		if attach != nil {
			attach(m)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkSimTraceOff pins the cost of the observability instrumentation
// with no sink attached — one nil check per event site. Its sim-cycles/s
// must track BenchmarkSimulatorThroughput (the pre-instrumentation shape)
// within noise; a regression here means the disabled-path guarantee broke.
func BenchmarkSimTraceOff(b *testing.B) {
	benchSim(b, nil)
}

// BenchmarkSimTraceOn measures the same run with the full hub attached
// (ring tracer + metrics) — the price of turning observability on.
func BenchmarkSimTraceOn(b *testing.B) {
	benchSim(b, func(m *sim.Machine) {
		m.SetObserver(obs.NewHub(obs.NewTracer(0), true))
	})
}

// BenchmarkSweepParallelism runs the same quick sweep on a one-worker pool
// and on a NumCPU-sized pool. Each iteration's sweep takes a fresh baseline
// memo, so it starts cold; the comparison isolates the
// worker-pool fan-out itself.
func BenchmarkSweepParallelism(b *testing.B) {
	for _, pool := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", runtime.NumCPU()}} {
		b.Run(pool.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := quick()
				p.Sweep.Parallelism = pool.workers
				sw, err := experiments.RunSweep("parallelism", p, experiments.PerfPolicies, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					reportSweep(b, sw)
				}
			}
		})
	}
}
