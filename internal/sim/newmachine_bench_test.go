package sim_test

import (
	"sync/atomic"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/attack"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// probeRegion is the attack experiments' 1 MiB probe window.
var probeRegion = []sim.Region{{Start: attack.ProbeBase, Size: attack.ProbeSize}}

func assembleWorkload(tb testing.TB, name string) *asm.Program {
	tb.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("no workload %q", name)
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// benchNewMachine measures machine construction alone: controller, sealed
// layout, program image, memory system and core. The first build of a
// layout in the process seals its shareable pages into the sealed-page
// table; every iteration after the warm-up build reuses them, as every
// machine after the first does in a campaign.
func benchNewMachine(b *testing.B, name string, regions []sim.Region) {
	p := assembleWorkload(b, name)
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	if _, err := sim.NewMachineWithRegions(cfg, p, regions); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewMachineWithRegions(cfg, p, regions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewMachine builds machines for three workloads of different
// image sizes.
func BenchmarkNewMachine(b *testing.B) {
	for _, name := range []string{"mcfx", "gccx", "artx"} {
		b.Run(name, func(b *testing.B) { benchNewMachine(b, name, nil) })
	}
}

// BenchmarkNewMachineProbe builds the attack experiments' machine shape:
// mcfx plus the 1 MiB probe region, the construction that dominates
// two-run contract checks of the attack kernels.
func BenchmarkNewMachineProbe(b *testing.B) { benchNewMachine(b, "mcfx", probeRegion) }

// BenchmarkNewMachineGenerated builds machines for differential-fuzz
// programs, with flat MACs and with the MAC tree. A cold build is the first
// build of its program in the process: every iteration builds a program
// generated from a seed no build has used, assembled outside the timer. A warm build
// repeats an earlier build of the same program, as the other cells of a
// program's cross campaign do.
func BenchmarkNewMachineGenerated(b *testing.B) {
	for _, tree := range []bool{false, true} {
		cfg := sim.DefaultConfig()
		cfg.Policy = policy.ThenCommit
		cfg.Sec.UseTree = tree
		mode := "flat"
		if tree {
			mode = "tree"
		}
		b.Run("cold/"+mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := generated(b, coldSeed.Add(1))
				b.StartTimer()
				if _, err := sim.NewMachine(cfg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/"+mode, func(b *testing.B) {
			p := generated(b, 7)
			if _, err := sim.NewMachine(cfg, p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.NewMachine(cfg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldSeed numbers the programs of cold builds: no two builds in the
// process, across sub-benchmarks and counts, use one program.
var coldSeed atomic.Int64

// generated assembles the differential-fuzz program of seed.
func generated(tb testing.TB, seed int64) *asm.Program {
	tb.Helper()
	p, err := asm.Assemble(diffcheck.GenProgram(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}
