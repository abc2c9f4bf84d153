package secmem_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/attack"
	"authpoint/internal/cryptoengine/ctr"
	"authpoint/internal/cryptoengine/hmac"
	"authpoint/internal/cryptoengine/mactree"
	"authpoint/internal/diffcheck"
	"authpoint/internal/policy"
	"authpoint/internal/secmem"
	"authpoint/internal/sim"
)

// The machine keys, restated so the expected seals below are computed from
// the primitives alone, not through the controller.
var (
	simEncKey = []byte("authpoint-encryption-key-256bit!")
	simMacKey = []byte("authpoint-integrity--key-256bit!")
)

// Test programs. mixed's data has a page holding values (an image page of
// the sealed-page table), two zero pages (shared from the table at counter
// 2) and a trailing value line on a page of its own; zerodata's data is all
// zeroes; nodata has none.
var testPrograms = map[string]string{
	"mixed": `
	li   r1, 0x100000
	ld   r2, 0(r1)
	addi r2, r2, 1
	sd   r2, 64(r1)
	sd   r2, -8(sp)
	halt
.data
vals: .word 1, 2, 3
pad:  .space 4072
zero: .space 8192
tail: .word 0x55
`,
	"zerodata": `
	li   r1, 0x100000
	sd   r1, 0(r1)
	halt
.data
buf: .space 16384
`,
	"nodata": `
	addi r1, r0, 7
	sd   r1, -16(sp)
	halt
`,
}

func assemble(t testing.TB, name string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(testPrograms[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

var probe = []sim.Region{{Start: attack.ProbeBase, Size: attack.ProbeSize}}

// sealConfigs are the controller configurations whose sealed state the
// pins cover.
var sealConfigs = map[string]func(*sim.Config){
	"flat":        func(*sim.Config) {},
	"tree":        func(c *sim.Config) { c.Sec.UseTree = true },
	"cbc":         func(c *sim.Config) { c.Sec.Mode = secmem.ModeCBC },
	"obfuscation": func(c *sim.Config) { c.Policy = policy.CommitPlusObfuscation },
	"no-mac-ctr":  func(c *sim.Config) { c.Sec.MacCoversCounter = false },
}

func build(t testing.TB, cfgName string, p *asm.Program, regions []sim.Region) (*sim.Machine, sim.Config) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	sealConfigs[cfgName](&cfg)
	m, err := sim.NewMachineWithRegions(cfg, p, regions)
	if err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

// layout restates the machine's protected ranges in leaf order: extra
// regions, text, data (at least one line), stack.
func layout(cfg sim.Config, p *asm.Program, regions []sim.Region) [][2]uint64 {
	lb := uint64(cfg.Mem.L2LineB)
	up := func(v uint64) uint64 { return (v + lb - 1) &^ (lb - 1) }
	dn := func(v uint64) uint64 { return v &^ (lb - 1) }
	var out [][2]uint64
	for _, r := range regions {
		out = append(out, [2]uint64{dn(r.Start), dn(r.Start) + up(r.Size)})
	}
	text := uint64(len(p.TextBytes()))
	out = append(out,
		[2]uint64{dn(p.TextBase), up(p.TextBase + text)},
		[2]uint64{dn(p.DataBase), up(p.DataBase + max(uint64(len(p.Data)), 1))},
		[2]uint64{sim.StackBase, sim.StackBase + cfg.StackB})
	return out
}

// expectedLine is the loader's view of one protected line: plaintext and
// how many image segments wrote it.
func expectedLine(p *asm.Program, a uint64, lb int) (plain []byte, writes uint64) {
	plain = make([]byte, lb)
	for _, seg := range []struct {
		base uint64
		data []byte
	}{{p.TextBase, p.TextBytes()}, {p.DataBase, p.Data}} {
		end := seg.base + uint64(len(seg.data))
		if len(seg.data) == 0 || end <= a || seg.base >= a+uint64(lb) {
			continue
		}
		lo := max(a, seg.base)
		copy(plain[lo-a:], seg.data[lo-seg.base:min(end, a+uint64(lb))-seg.base])
		writes++
	}
	return plain, writes
}

// checkSealed pins a freshly built machine's protected state against
// values computed from the ctr and hmac primitives: every line's counter
// and ciphertext, its flat MAC slot or the whole MAC tree, and the remap
// slots.
func checkSealed(t testing.TB, m *sim.Machine, cfg sim.Config, p *asm.Program, regions []sim.Region) {
	t.Helper()
	sc := m.Ctrl.Config()
	lb := sc.LineB
	eng, err := ctr.NewEngine(simEncKey, lb)
	if err != nil {
		t.Fatal(err)
	}
	var leaves [][]byte
	leaf := 0
	for _, r := range layout(cfg, p, regions) {
		for a := r[0]; a < r[1]; a += uint64(lb) {
			plain, writes := expectedLine(p, a, lb)
			c := 1 + writes
			if got := m.Ctrl.Encryptor().Counter(a); got != c {
				t.Fatalf("line %#x: counter %d, want %d", a, got, c)
			}
			ct := eng.Pad(a, c)
			for i := range ct {
				ct[i] ^= plain[i]
			}
			if got := m.Memory.Read(a, lb); !bytes.Equal(got, ct) {
				t.Fatalf("line %#x: ciphertext differs from pad(addr, %d) ^ plaintext", a, c)
			}
			if idx, ok := m.Ctrl.LeafIndex(a); !ok || idx != leaf {
				t.Fatalf("line %#x: leaf %d, %v; want %d", a, idx, ok, leaf)
			}
			msg := make([]byte, 16, 16+lb)
			binary.LittleEndian.PutUint64(msg, a)
			if sc.MacCoversCounter {
				binary.LittleEndian.PutUint64(msg[8:], c)
			}
			msg = append(msg, ct...)
			if sc.UseTree {
				leaves = append(leaves, msg)
			} else {
				mac := hmac.Mac(simMacKey, msg)
				slot, ok := m.Ctrl.MacAddrOf(a)
				if !ok || slot != secmem.MacBase+uint64(leaf*sc.MacB) {
					t.Fatalf("line %#x: MAC slot %#x, %v", a, slot, ok)
				}
				if got := m.Memory.Read(slot, sc.MacB); !bytes.Equal(got, mac[:sc.MacB]) {
					t.Fatalf("line %#x: stored MAC differs from HMAC(addr‖ctr‖ct)", a)
				}
			}
			leaf++
		}
	}
	if sc.UseTree {
		ref, err := mactree.New(simMacKey, leaf, lb/sc.MacB, sc.MacB)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range leaves {
			if _, err := ref.SetLeaf(i, l); err != nil {
				t.Fatal(err)
			}
		}
		got := m.Ctrl.Tree()
		if got.Levels() != ref.Levels() || !bytes.Equal(got.Root(), ref.Root()) {
			t.Fatal("MAC tree root differs from a leaf-by-leaf build")
		}
		for l := 0; l < ref.Levels(); l++ {
			for i := 0; i < ref.NodeCount(l); i++ {
				id := mactree.NodeID{Level: l, Index: i}
				if !bytes.Equal(got.Node(id), ref.Node(id)) {
					t.Fatalf("MAC tree node %v differs", id)
				}
			}
		}
	}
	if sc.Remap {
		// The loader's shuffle: leaf i takes the (i+1)-th draw of the LCG
		// over twice as many slots as lines.
		state, n := uint64(0x9e3779b97f4a7c15), uint64(leaf)*2
		i := 0
		for _, r := range layout(cfg, p, regions) {
			for a := r[0]; a < r[1]; a += uint64(lb) {
				state = state*6364136223846793005 + 1442695040888963407
				if got, ok := secmem.RemapSlot(m.Ctrl, a); !ok || got != (state>>17)%n {
					t.Fatalf("line %#x (leaf %d): remap slot %d, want %d", a, i, got, (state>>17)%n)
				}
				i++
			}
		}
	}
}

// TestSealIdentity pins the sealed state of fresh machines across
// configurations, programs (data with values, all-zero data, no data) and
// with and without the 1 MiB probe region. Each case builds twice, so the
// second build takes every whole page from the sealed-page table.
func TestSealIdentity(t *testing.T) {
	for cfgName := range sealConfigs {
		for progName := range testPrograms {
			for _, withProbe := range []bool{false, true} {
				if withProbe && progName != "mixed" {
					continue // one program covers the probe layout
				}
				name := fmt.Sprintf("%s/%s/probe=%v", cfgName, progName, withProbe)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					p := assemble(t, progName)
					var regions []sim.Region
					if withProbe {
						regions = probe
					}
					for range 2 {
						m, cfg := build(t, cfgName, p, regions)
						checkSealed(t, m, cfg, p, regions)
					}
				})
			}
		}
	}
}

// TestSecondBuildSealsOnlyImageLines pins the work a warm build does. A
// second build of the same program and layout is a sealed-layout cache hit
// and seals nothing. A different program with the same layout misses that
// cache; with every whole page of the layout in the sealed-page table —
// zero pages and the image's data pages alike — it seals individually only
// the lines of pages that cannot be shared. Here those are the variant's
// text line and its trailing value line, each on a page the protected
// range covers only in part; the first data page, the zero data pages, the
// stack and the probe window all come from the table.
func TestSecondBuildSealsOnlyImageLines(t *testing.T) {
	secmem.FlushLayoutCache()
	p := assemble(t, "mixed")
	build(t, "flat", p, probe)
	m, _ := build(t, "flat", p, probe)
	if got := secmem.SealWork(m.Ctrl); got != 0 {
		t.Fatalf("second build sealed %d lines, want 0 (a layout-cache hit)", got)
	}
	q, err := asm.Assemble(strings.Replace(testPrograms["mixed"], "addi r2, r2, 1", "addi r2, r2, 2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.TextBytes()) != len(p.TextBytes()) || !bytes.Equal(q.Data, p.Data) || bytes.Equal(q.TextBytes(), p.TextBytes()) {
		t.Fatal("the variant does not keep the layout and data of mixed with other text")
	}
	m, _ = build(t, "flat", q, probe)
	textLines := (len(q.TextBytes()) + 63) / 64
	want := textLines + 1
	if got := secmem.SealWork(m.Ctrl); got != want {
		t.Fatalf("a build of the same layout with other text sealed %d lines, want %d (text %d + tail 1)", got, want, textLines)
	}
}

// TestSealIsolation tampers one machine at every adversary site — and
// writes straight into its shared zero and image pages — then builds
// another: the second machine must seal exactly as a fresh one, and the
// sealed-page table, its image pages included, must be unchanged. The
// sites run as parallel subtests, so the race detector sees concurrent
// builds sharing the table.
func TestSealIsolation(t *testing.T) {
	p := assemble(t, "mixed")
	for _, cfgName := range []string{"flat", "tree"} {
		build(t, cfgName, p, probe) // fill the table for both layouts
	}
	before := secmem.SealedTablePages()
	if imagePages(before) == 0 {
		t.Fatal("the mixed program's first data page is not in the sealed-page table")
	}
	t.Run("sites", func(t *testing.T) {
		for _, site := range diffcheck.Sites() {
			t.Run(string(site), func(t *testing.T) {
				t.Parallel()
				cfgName := "flat"
				if site == diffcheck.SiteTree {
					cfgName = "tree"
				}
				a, _ := build(t, cfgName, p, probe)
				if err := diffcheck.Tamper(a, p, site); err != nil {
					t.Fatal(err)
				}
				a.Memory.XorRange(sim.StackBase, []byte{0xff, 0xff})
				a.Memory.Write(attack.ProbeBase+0x1000, bytes.Repeat([]byte{0xaa}, 64))
				a.Memory.XorRange(p.DataBase+128, []byte{0x01, 0x80})
				a.Ctrl.Memory().XorRange(secmem.MacBase, []byte{0x01})
				a.Cfg.MaxInsts = 50
				if _, err := a.Run(); err != nil && !strings.Contains(err.Error(), "watchdog") {
					t.Fatal(err)
				}
				b, cfg := build(t, cfgName, p, probe)
				checkSealed(t, b, cfg, p, probe)
			})
		}
	})
	after := secmem.SealedTablePages()
	for k, h := range before {
		if after[k] != h {
			t.Errorf("sealed-page table page %s changed", k)
		}
	}
}

// imagePages counts the image pages among SealedTablePages' entries.
func imagePages(pages map[string][32]byte) int {
	n := 0
	for k := range pages {
		if strings.Contains(k, " img=") {
			n++
		}
	}
	return n
}
