package secmem_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/attack"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/diffcheck"
	"authpoint/internal/interp"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/secmem"
	"authpoint/internal/sim"
)

// sealedState is a machine's whole protected state in leaf order: every
// line's ciphertext and counter, every flat MAC-store slot, and in tree
// mode every tree level and the root.
type sealedState struct {
	lines, ctrs, macs, tree []byte
}

func stateOf(m *sim.Machine, cfg sim.Config, p *asm.Program, regions []sim.Region) sealedState {
	var s sealedState
	lb := m.Ctrl.Config().LineB
	mb := m.Ctrl.Config().MacB
	for _, r := range layout(cfg, p, regions) {
		for a := r[0]; a < r[1]; a += uint64(lb) {
			s.lines = append(s.lines, m.Memory.Read(a, lb)...)
			s.ctrs = binary.LittleEndian.AppendUint64(s.ctrs, m.Ctrl.Encryptor().Counter(a))
			if slot, ok := m.Ctrl.MacAddrOf(a); ok {
				s.macs = append(s.macs, m.Memory.Read(slot, mb)...)
			}
		}
	}
	if tr := m.Ctrl.Tree(); tr != nil {
		for l := 0; l < tr.Levels(); l++ {
			for i := 0; i < tr.NodeCount(l); i++ {
				s.tree = append(s.tree, tr.Node(mactree.NodeID{Level: l, Index: i})...)
			}
		}
		s.tree = append(s.tree, tr.Root()...)
	}
	return s
}

// diff names the first part of the protected state where s and o differ.
func (s sealedState) diff(o sealedState) string {
	for _, part := range []struct {
		name string
		a, b []byte
	}{{"ciphertext", s.lines, o.lines}, {"counters", s.ctrs, o.ctrs}, {"MAC store", s.macs, o.macs}, {"MAC tree", s.tree, o.tree}} {
		if !bytes.Equal(part.a, part.b) {
			return part.name
		}
	}
	return ""
}

// layoutProgram is a program and the extra regions its machines map.
type layoutProgram struct {
	p       *asm.Program
	regions []sim.Region
}

// layoutPrograms are the identity test's programs: a catalog workload with
// image pages, a generated differential-fuzz program, and an attack kernel
// with the 1 MiB probe window.
func layoutPrograms(t *testing.T) map[string]layoutProgram {
	t.Helper()
	gen, err := asm.Assemble(diffcheck.GenProgram(7))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]layoutProgram{
		"lucasx":    {p: assembleWorkload(t, "lucasx")},
		"generated": {p: gen},
	}
	kernels, err := attack.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels {
		if k.NeedsProbe {
			out["kernel:"+k.Name] = layoutProgram{p: k.Prog, regions: probe}
			break
		}
	}
	if len(out) != 3 {
		t.Fatal("no attack kernel maps the probe window")
	}
	return out
}

// buildLayout builds p under the named fetch configuration with a short
// instruction budget.
func buildLayout(t testing.TB, cfgName string, lp layoutProgram) (*sim.Machine, sim.Config) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.MaxInsts = 20_000
	cfg.Policy = policy.ThenCommit
	fetchConfigs[cfgName](&cfg)
	m, err := sim.NewMachineWithRegions(cfg, lp.p, lp.regions)
	if err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

// runOutcome is what a run leaves: its result, error, the architectural
// digest over data and stack, and the fast-path counters, which include
// the fetches served without crypto.
type runOutcome struct {
	res    sim.Result
	err    string
	digest [32]byte
	perf   obs.Perf
}

func runLayout(m *sim.Machine, cfg sim.Config, p *asm.Program) runOutcome {
	perf := m.EnablePerf()
	res, err := m.Run()
	o := runOutcome{res: res, perf: *perf}
	if err != nil {
		o.err = err.Error()
	}
	o.digest = m.ArchDigest(
		interp.MemRange{Start: p.DataBase, Len: uint64(max(len(p.Data), 1))},
		interp.MemRange{Start: sim.StackBase, Len: cfg.StackB})
	return o
}

// TestLayoutCacheIdentity builds each program under each configuration
// three ways: on a sealed-layout cache miss, on a hit, and with the cache
// bypassed. The three machines must hold byte-identical protected state —
// every line, counter, MAC-store slot and tree node — and run to identical
// results, serving the same fetches without crypto.
func TestLayoutCacheIdentity(t *testing.T) {
	for progName, lp := range layoutPrograms(t) {
		for cfgName := range fetchConfigs {
			t.Run(progName+"/"+cfgName, func(t *testing.T) {
				secmem.FlushLayoutCache()
				miss, cfg := buildLayout(t, cfgName, lp)
				hit, _ := buildLayout(t, cfgName, lp)
				if n := secmem.SealWork(hit.Ctrl); n != 0 {
					t.Fatalf("the second build sealed %d lines, want 0 (a layout-cache hit)", n)
				}
				var ref *sim.Machine
				t.Run("bypass", func(t *testing.T) {
					secmem.BypassLayoutCache(t)
					ref, _ = buildLayout(t, cfgName, lp)
				})
				if secmem.SealWork(miss.Ctrl) == 0 || secmem.SealWork(ref.Ctrl) == 0 {
					t.Fatal("the miss and the bypassed build sealed nothing themselves")
				}
				want := stateOf(ref, cfg, lp.p, lp.regions)
				for name, m := range map[string]*sim.Machine{"miss": miss, "hit": hit} {
					if d := stateOf(m, cfg, lp.p, lp.regions).diff(want); d != "" {
						t.Errorf("%s build: %s differs from the bypassed build", name, d)
					}
				}
				wantRun := runLayout(ref, cfg, lp.p)
				for name, m := range map[string]*sim.Machine{"miss": miss, "hit": hit} {
					if got := runLayout(m, cfg, lp.p); !reflect.DeepEqual(got, wantRun) {
						t.Errorf("%s build ran to %+v, bypassed build to %+v", name, got, wantRun)
					}
				}
			})
		}
	}
}

// TestLayoutCacheIsolation tampers a hit-built machine at every adversary
// site, writes into its shared pages and runs it; the machine whose miss
// filled the entry is written into too. A sibling built from the same
// cache entry before the tampering, and a build after it, must both hold
// exactly the state of a bypassed build. The sites run as parallel
// subtests, so the race detector sees concurrent hits on one entry.
func TestLayoutCacheIsolation(t *testing.T) {
	p := assemble(t, "mixed")
	lp := layoutProgram{p: p, regions: probe}
	secmem.FlushLayoutCache()
	want := map[string]sealedState{}
	siblings := map[string]*sim.Machine{}
	for _, cfgName := range []string{"flat", "tree"} {
		t.Run("reference/"+cfgName, func(t *testing.T) {
			secmem.BypassLayoutCache(t)
			m, cfg := buildLayout(t, cfgName, lp)
			want[cfgName] = stateOf(m, cfg, p, probe)
		})
		fill, _ := buildLayout(t, cfgName, lp) // the miss that fills the entry
		siblings[cfgName], _ = buildLayout(t, cfgName, lp)
		scribble(t, fill, p)
	}
	t.Run("sites", func(t *testing.T) {
		for _, site := range diffcheck.Sites() {
			t.Run(string(site), func(t *testing.T) {
				t.Parallel()
				cfgName := "flat"
				if site == diffcheck.SiteTree {
					cfgName = "tree"
				}
				a, _ := buildLayout(t, cfgName, lp)
				if n := secmem.SealWork(a.Ctrl); n != 0 {
					t.Fatalf("sealed %d lines, want a layout-cache hit", n)
				}
				if err := diffcheck.Tamper(a, p, site); err != nil {
					t.Fatal(err)
				}
				scribble(t, a, p)
				b, cfg := buildLayout(t, cfgName, lp)
				if d := stateOf(b, cfg, p, probe).diff(want[cfgName]); d != "" {
					t.Fatalf("a build after the tamper: %s differs from the bypassed build", d)
				}
			})
		}
	})
	for cfgName, s := range siblings {
		if d := stateOf(s, s.Cfg, p, probe).diff(want[cfgName]); d != "" {
			t.Errorf("%s sibling: %s changed by the tampered machines", cfgName, d)
		}
	}
}

// TestLayoutCacheConcurrentFill builds one layout from several goroutines
// at once on an empty cache: exactly one build seals, the others wait for
// its entry, and every machine holds the state of a bypassed build.
func TestLayoutCacheConcurrentFill(t *testing.T) {
	p := assemble(t, "mixed")
	for _, cfgName := range []string{"flat", "tree"} {
		lp := layoutProgram{p: p, regions: probe}
		var want sealedState
		t.Run("reference/"+cfgName, func(t *testing.T) {
			secmem.BypassLayoutCache(t)
			m, cfg := buildLayout(t, cfgName, lp)
			want = stateOf(m, cfg, p, probe)
		})
		secmem.FlushLayoutCache()
		const n = 4
		machines := make([]*sim.Machine, n)
		var wg sync.WaitGroup
		for i := range machines {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := sim.DefaultConfig()
				cfg.Policy = policy.ThenCommit
				fetchConfigs[cfgName](&cfg)
				m, err := sim.NewMachineWithRegions(cfg, p, probe)
				if err != nil {
					t.Error(err)
					return
				}
				machines[i] = m
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		sealers := 0
		for _, m := range machines {
			if secmem.SealWork(m.Ctrl) != 0 {
				sealers++
			}
			if d := stateOf(m, m.Cfg, p, probe).diff(want); d != "" {
				t.Errorf("%s: %s differs from the bypassed build", cfgName, d)
			}
		}
		if sealers != 1 {
			t.Errorf("%s: %d of %d concurrent builds sealed, want 1", cfgName, sealers, n)
		}
	}
}

// scribble writes into every kind of state a build of the mixed program
// with the probe window holds — text, data, stack, probe and MAC-store
// pages, a counter, and in tree mode a node — and runs the machine.
func scribble(t *testing.T, m *sim.Machine, p *asm.Program) {
	t.Helper()
	m.Memory.XorRange(sim.StackBase, []byte{0xff, 0xff})
	m.Memory.XorRange(p.TextBase, []byte{0x10})
	m.Memory.Write(attack.ProbeBase+0x1000, bytes.Repeat([]byte{0xaa}, 64))
	m.Memory.XorRange(p.DataBase+128, []byte{0x01, 0x80})
	m.Memory.XorRange(p.DataBase+len64(p.Data)-8, []byte{0x04})
	m.Ctrl.Memory().XorRange(secmem.MacBase, []byte{0x01})
	e := m.Ctrl.Encryptor()
	e.SetCounter(sim.StackBase, e.Counter(sim.StackBase)+3)
	if tr := m.Ctrl.Tree(); tr != nil {
		tr.TamperNode(mactree.NodeID{Level: 1, Index: 0}, []byte{0x02})
	}
	m.Cfg.MaxInsts = 50
	if _, err := m.Run(); err != nil && !strings.Contains(err.Error(), "watchdog") {
		t.Fatal(err)
	}
}

func len64(b []byte) uint64 { return uint64(len(b)) }

// TestLayoutCacheBounded runs a 200-program seed range, plain and tampered
// at every site in turn: the cache never holds more than its capacity.
func TestLayoutCacheBounded(t *testing.T) {
	sites := diffcheck.Sites()
	for seed := int64(1); seed <= 200; seed++ {
		for _, tamper := range []bool{false, true} {
			opt := diffcheck.Options{Policy: policy.ThenCommit, Tamper: tamper}
			if tamper {
				opt.TamperSite = sites[seed%int64(len(sites))]
			}
			if res, _ := diffcheck.CheckSeed(seed, opt); res.Verdict == diffcheck.VerdictError {
				t.Fatalf("seed %d: %v", seed, res)
			}
		}
		if n, capacity := secmem.LayoutCacheLen(); n > capacity {
			t.Fatalf("after seed %d the cache holds %d layouts, capacity %d", seed, n, capacity)
		}
	}
	if n, _ := secmem.LayoutCacheLen(); n == 0 {
		t.Fatal("the campaign left no layout in the cache")
	}
}
