package sim_test

import (
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/attack"
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
