package secmem_test

import (
	"bytes"
	"reflect"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/diffcheck"
	"authpoint/internal/mem"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/secmem"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

// fetchConfigs are the configurations the known-line fetch is pinned under:
// every sealed-state configuration, plus the decrypt-only baseline, where
// nothing is verified and only the decryption is skipped.
var fetchConfigs = func() map[string]func(*sim.Config) {
	out := map[string]func(*sim.Config){
		"no-auth": func(c *sim.Config) { c.Policy = policy.Baseline },
	}
	for name, f := range sealConfigs {
		out[name] = f
	}
	return out
}()

// knownWorkloads are catalog workloads whose fetches read sealed table
// pages and whose runs write lines back: lucasx's data pages hold values
// (image pages), mcfx's 1 MiB data array is zeroes written once (zero pages
// at counter 2), swimx has both.
var knownWorkloads = []string{"lucasx", "mcfx", "swimx"}

func assembleWorkload(t testing.TB, name string) *asm.Program {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildFetch builds a machine for p under the named fetch configuration,
// forced onto the full decrypt-and-verify path when full is set. The L2 is
// cut to 16 KiB so that a short run also writes lines back and fetches
// them again from their now private pages.
func buildFetch(t testing.TB, cfgName string, p *asm.Program, full bool) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Policy = policy.ThenCommit
	cfg.MaxInsts = 20_000
	cfg.Mem.L2B = 16 << 10
	fetchConfigs[cfgName](&cfg)
	m, err := sim.NewMachine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if full {
		secmem.ForceFullCrypto(m.Ctrl)
	}
	return m
}

// ctrlCall is one timed controller operation of a run: a Fetch that
// reached the controller at now and the bus no earlier than start, or a
// WriteBack of plaintext wb at now.
type ctrlCall struct {
	now, start, addr uint64
	wb               []byte
}

// recorder is a sink that keeps a run's events and, from them, its
// controller calls. A write-back's plaintext is read from the machine's
// shadow when the event arrives: the memory system copied it from there
// just before calling WriteBack.
type recorder struct {
	m      *sim.Machine
	events []obs.Event
	calls  []ctrlCall
}

func (r *recorder) Emit(e obs.Event) {
	r.events = append(r.events, e)
	switch e.Kind {
	case obs.EvSecFetch:
		r.calls = append(r.calls, ctrlCall{now: e.Cycle, start: e.Cycle, addr: e.Addr})
	case obs.EvFetchGateWait:
		r.calls[len(r.calls)-1].now = e.Cycle // follows its EvSecFetch
	case obs.EvWriteBack:
		lb := r.m.Ctrl.Config().LineB
		r.calls = append(r.calls, ctrlCall{now: e.Cycle, addr: e.Addr, wb: r.m.Shadow.Read(e.Addr, lb)})
	}
}

func runRecorded(t *testing.T, m *sim.Machine) (sim.Result, *recorder) {
	t.Helper()
	rec := &recorder{m: m}
	m.SetObserver(rec)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestKnownFetchIdentity pins the known-line fetch against the full-crypto
// path both ways. A catalog workload runs once normally and once forced onto
// full crypto: the results and the whole observed event stream must match.
// Then every controller call of the run, plus a re-fetch of every line it
// wrote back, is replayed on two fresh machines, one of each kind, and
// every FetchResult — plaintext, bus, data, plaintext and verification
// cycles, verdict and queue index — must be identical.
func TestKnownFetchIdentity(t *testing.T) {
	for cfgName := range fetchConfigs {
		for _, wl := range knownWorkloads {
			t.Run(cfgName+"/"+wl, func(t *testing.T) {
				t.Parallel()
				p := assembleWorkload(t, wl)
				resKnown, recKnown := runRecorded(t, buildFetch(t, cfgName, p, false))
				resFull, recFull := runRecorded(t, buildFetch(t, cfgName, p, true))
				if !reflect.DeepEqual(resKnown, resFull) {
					t.Fatalf("run results differ:\nknown %+v\nfull  %+v", resKnown, resFull)
				}
				if !reflect.DeepEqual(recKnown.events, recFull.events) {
					t.Fatalf("event streams differ (%d vs %d events)", len(recKnown.events), len(recFull.events))
				}

				known, full := buildFetch(t, cfgName, p, false), buildFetch(t, cfgName, p, true)
				perfKnown, perfFull := known.EnablePerf(), full.EnablePerf()
				// After the run's own calls, fetch every line it wrote back
				// once more: those now sit on private pages.
				calls := recKnown.calls
				at := calls[len(calls)-1].now
				for _, c := range recKnown.calls {
					if c.wb != nil {
						at++
						calls = append(calls, ctrlCall{now: at, start: at, addr: c.addr})
					}
				}
				fetches, writebacks := 0, 0
				for i, c := range calls {
					if c.wb != nil {
						writebacks++
						a, errA := known.Ctrl.WriteBack(c.now, c.addr, c.wb)
						b, errB := full.Ctrl.WriteBack(c.now, c.addr, c.wb)
						if a != b || (errA == nil) != (errB == nil) {
							t.Fatalf("call %d: WriteBack(%#x) = %d, %v known; %d, %v full", i, c.addr, a, errA, b, errB)
						}
						continue
					}
					a, errA := known.Ctrl.Fetch(c.now, c.addr, c.start)
					if errA != nil {
						t.Fatal(errA)
					}
					a.Data = bytes.Clone(a.Data)
					b, errB := full.Ctrl.Fetch(c.now, c.addr, c.start)
					if errB != nil {
						t.Fatal(errB)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("call %d: Fetch(%#x) differs:\nknown %+v\nfull  %+v", i, c.addr, a, b)
					}
					fetches++
				}
				if perfFull.KnownFetches != 0 {
					t.Fatalf("forced full-crypto machine served %d known fetches", perfFull.KnownFetches)
				}
				if perfKnown.KnownFetches == 0 || writebacks == 0 {
					t.Fatalf("%d of %d fetches known, %d write-backs: the run must exercise both paths",
						perfKnown.KnownFetches, fetches, writebacks)
				}
				t.Logf("%d of %d fetches known, %d write-backs", perfKnown.KnownFetches, fetches, writebacks)
			})
		}
	}
}

// TestKnownFetchTamper tampers machines at every diffcheck site and at
// three sites aimed at the known-line path, and requires the tampered
// fetch to fail verification exactly as on the full-crypto path: same
// verdict, same fault, same cycles.
func TestKnownFetchTamper(t *testing.T) {
	p := assembleWorkload(t, "gapx")
	t.Run("sites", func(t *testing.T) {
		for _, site := range diffcheck.Sites() {
			t.Run(string(site), func(t *testing.T) {
				t.Parallel()
				cfgName := "flat"
				if site == diffcheck.SiteTree {
					cfgName = "tree"
				}
				var res [2]sim.Result
				for i, full := range []bool{false, true} {
					m := buildFetch(t, cfgName, p, full)
					if err := diffcheck.Tamper(m, p, site); err != nil {
						t.Fatal(err)
					}
					r, err := m.Run()
					if err != nil {
						t.Fatal(err)
					}
					res[i] = r
				}
				if res[0].SecurityFault == nil {
					t.Fatalf("tampered run ended %v without a security fault", res[0].Reason)
				}
				if !reflect.DeepEqual(res[0], res[1]) {
					t.Fatalf("tampered run differs from the full-crypto path:\nknown %+v (fault %+v)\nfull  %+v (fault %+v)",
						res[0], *res[0].SecurityFault, res[1], res[1].SecurityFault)
				}
			})
		}
	})

	// A line in the middle of gapx's data image, on a page shared from the
	// sealed-page table.
	line := p.DataBase + 2*mem.PageSize + 3*64
	cases := []struct {
		name    string
		configs []string
		tamper  func(*sim.Machine)
		shared  bool // the line's ciphertext page stays shared
	}{
		{"mac-beside-shared-page", []string{"flat", "cbc", "obfuscation"}, func(m *sim.Machine) {
			slot, _ := m.Ctrl.MacAddrOf(line)
			m.Memory.XorRange(slot, []byte{0x40})
		}, true},
		{"counter-rollback", []string{"flat", "tree", "no-mac-ctr"}, func(m *sim.Machine) {
			e := m.Ctrl.Encryptor()
			e.SetCounter(line, e.Counter(line)-1)
		}, true},
		{"xor-shared-image-page", []string{"flat", "tree", "no-auth"}, func(m *sim.Machine) {
			m.Memory.XorRange(line+5, []byte{0x40})
		}, false},
	}
	for _, tc := range cases {
		for _, cfgName := range tc.configs {
			t.Run(tc.name+"/"+cfgName, func(t *testing.T) {
				t.Parallel()
				var res [2]secmem.FetchResult
				var faults [2]*secmem.Fault
				for i, full := range []bool{false, true} {
					m := buildFetch(t, cfgName, p, full)
					clean, err := m.Ctrl.ReadPlain(line, 64)
					if err != nil {
						t.Fatal(err)
					}
					tc.tamper(m)
					if shared := m.Memory.SharedPage(line) != nil; shared != tc.shared {
						t.Fatalf("line's page shared = %v after tampering, want %v", shared, tc.shared)
					}
					r, err := m.Ctrl.Fetch(100, line, 0)
					if err != nil {
						t.Fatal(err)
					}
					r.Data = bytes.Clone(r.Data)
					res[i], faults[i] = r, m.Ctrl.Fault()
					if bytes.Equal(r.Data, clean) && r.AuthOK && m.Cfg.Sec.Authenticate {
						t.Fatal("tampered line fetched clean and verified")
					}
				}
				if !reflect.DeepEqual(res[0], res[1]) || !reflect.DeepEqual(faults[0], faults[1]) {
					t.Fatalf("tampered fetch differs from the full-crypto path:\nknown %+v fault %+v\nfull  %+v fault %+v",
						res[0], faults[0], res[1], faults[1])
				}
			})
		}
	}
}

// TestSealTableBoundedByCampaign runs a differential-check seed range, as a
// fuzz campaign does, and requires it to add no image page to the
// sealed-page table: generated programs keep their text and data within a
// page the protected range covers only in part, so the table stays the
// size of the fixed layouts however many seeds a campaign runs.
func TestSealTableBoundedByCampaign(t *testing.T) {
	before := imagePages(secmem.SealedTablePages())
	for seed := int64(1); seed <= 40; seed++ {
		for _, tamper := range []bool{false, true} {
			res, _ := diffcheck.CheckSeed(seed, diffcheck.Options{Policy: policy.ThenCommit, Tamper: tamper})
			if res.Verdict == diffcheck.VerdictError {
				t.Fatalf("seed %d: %v", seed, res)
			}
		}
	}
	if after := imagePages(secmem.SealedTablePages()); after != before {
		t.Fatalf("40 seeds added %d image pages to the sealed-page table", after-before)
	}
}
