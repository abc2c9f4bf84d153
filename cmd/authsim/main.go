// Command authsim runs one program or workload on the secure processor
// model and reports timing, cache, and authentication statistics, and the
// out-port log when the program wrote one. It is also the single-run
// observability tool: a commit-order trace with cycle timestamps, the
// commit-gap histogram (authentication stalls show up as long gaps),
// metrics, and a Chrome/Perfetto trace-event export and its validator.
//
// Usage:
//
//	authsim -workload mcfx -scheme authen-then-commit -maxinsts 200000
//	authsim -file prog.s -scheme authen-then-issue
//	authsim -workload swimx -scheme all            # compare all registered policies
//	authsim -workload mcfx -scheme authen-then-write+fetch   # any lattice point
//	authsim -file prog.s -scheme authen-then-commit -commits 100   # commit-order trace
//	authsim -workload swimx -scheme authen-then-commit -gap        # commit-gap histogram
//	authsim -workload mcfx -scheme commit+fetch -trace t.json      # trace-event export
//	authsim -validate t.json       # check a -trace export is well-formed
package main

import (
	"flag"
	"fmt"
	"os"

	"authpoint/internal/asm"
	"authpoint/internal/obs"
	"authpoint/internal/policy"
	"authpoint/internal/report"
	"authpoint/internal/secmem"
	"authpoint/internal/sim"
	"authpoint/internal/workload"
)

func main() {
	var (
		file     = flag.String("file", "", "assembly source file to run")
		load     = flag.String("workload", "", "built-in workload name (e.g. mcfx)")
		scheme   = flag.String("scheme", "baseline", "control-point name (any registered or composed policy, e.g. authen-then-write+fetch) or 'all'")
		maxInsts = flag.Uint64("maxinsts", 0, "stop after N committed instructions (0 = run to halt)")
		l2KB     = flag.Int("l2kb", 256, "L2 size in KB")
		ruu      = flag.Int("ruu", 128, "RUU entries")
		tree     = flag.Bool("tree", false, "MAC-tree authentication")
		drain    = flag.Bool("drain", false, "then-fetch: drain-the-queue variant")
		prefetch = flag.Bool("prefetch", false, "enable next-line L2 prefetching")
		macUnits = flag.Int("macunits", 1, "parallel verification engines")
		cbc      = flag.Bool("cbc", false, "CBC-mode encryption timing (Table 1 comparison)")
		mshrs    = flag.Int("mshrs", 0, "bound outstanding misses (0 = unbounded)")
		verbose  = flag.Bool("v", false, "print cache/DRAM/auth statistics")
		trace    = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file (single scheme only)")
		traceCap = flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default)")
		metrics  = flag.Bool("metrics", false, "print auth-latency/gap/occupancy histograms and event counters")
		commits  = flag.Int("commits", 0, "print the first N committed instructions with their commit cycles (single scheme only)")
		gap      = flag.Bool("gap", false, "print the commit-gap histogram (single scheme only)")
		validate = flag.String("validate", "", "validate a trace-event JSON file (from -trace) and exit")
	)
	flag.Parse()
	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatalf("%v", err)
		}
		if err := obs.ValidateTraceJSON(data); err != nil {
			fatalf("%s: %v", *validate, err)
		}
		fmt.Printf("%s: well-formed trace-event JSON\n", *validate)
		return
	}
	if (*trace != "" || *commits > 0 || *gap) && *scheme == "all" {
		fatalf("-trace, -commits and -gap need a single -scheme, not 'all'")
	}

	var src string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fatalf("%v", err)
		}
		src = string(b)
	case *load != "":
		w, ok := workload.ByName(*load)
		if !ok {
			fatalf("unknown workload %q; try one of %v", *load, names())
		}
		src = w.Source
		if *maxInsts == 0 {
			*maxInsts = w.InitInsts + 150_000
		}
	default:
		fatalf("need -file or -workload")
	}

	prog, err := asm.Assemble(src)
	if err != nil {
		fatalf("assemble: %v", err)
	}

	var policies []policy.ControlPoint
	if *scheme == "all" {
		for _, e := range policy.Registered() {
			policies = append(policies, e.Point)
		}
	} else {
		pt, err := policy.Parse(*scheme)
		if err != nil {
			fatalf("%v", err)
		}
		policies = append(policies, pt)
	}

	// The commit views keep the commit trace's own layout: commit lines as
	// they retire, then a stop line, instead of the policy table.
	var cl *commitLog
	if *commits > 0 || *gap {
		cl = newCommitLog(os.Stdout, *commits, *gap)
	} else {
		fmt.Printf("%-32s %10s %12s %8s %12s\n", "policy", "IPC", "cycles", "insts", "stop")
	}
	for _, s := range policies {
		cfg := sim.DefaultConfig()
		cfg.Policy = s
		cfg.MaxInsts = *maxInsts
		cfg.Mem.L2B = *l2KB << 10
		if *l2KB >= 1024 {
			cfg.Mem.L2Lat = 8
		}
		cfg.Pipeline.RUUSize = *ruu
		cfg.Pipeline.LSQSize = *ruu / 2
		cfg.Sec.UseTree = *tree
		cfg.Mem.FetchDrain = *drain
		cfg.Mem.NextLinePrefetch = *prefetch
		cfg.Sec.MacUnits = *macUnits
		cfg.Mem.MSHRs = *mshrs
		if *cbc {
			cfg.Sec.Mode = secmem.ModeCBC
		}
		m, err := sim.NewMachine(cfg, prog)
		if err != nil {
			fatalf("%v", err)
		}
		var tr *obs.Tracer
		if *trace != "" {
			tr = obs.NewTracer(*traceCap)
		}
		if tr != nil || *metrics {
			m.AttachMetrics(tr)
		}
		if cl != nil {
			cl.attach(m)
		}
		res, err := m.Run()
		if err != nil {
			fatalf("%v: %v", s, err)
		}
		if cl != nil {
			cl.summary(res)
		} else {
			fmt.Printf("%-32s %10.4f %12d %8d %12v\n", s, res.IPC, res.Cycles, res.Insts, res.Reason)
		}
		for _, e := range m.Core.OutLog() {
			fmt.Printf("  out port %#x <- %#x @ cycle %d\n", e.Port, e.Val, e.Cycle)
		}
		if *verbose {
			report.Write(os.Stdout, m, res)
		}
		if *metrics {
			report.WriteMetrics(os.Stdout, m.Metrics())
		}
		if tr != nil {
			f, err := os.Create(*trace)
			if err != nil {
				fatalf("%v", err)
			}
			if err := tr.WriteJSON(f); err != nil {
				fatalf("trace: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("trace: %v", err)
			}
			if d := tr.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "authsim: trace ring dropped %d oldest events (raise -trace-cap)\n", d)
			}
			fmt.Printf("trace: %d events -> %s (load in ui.perfetto.dev)\n",
				tr.Total()-tr.Dropped(), *trace)
		}
	}
}

func names() []string {
	var out []string
	for _, w := range workload.All() {
		out = append(out, w.Name)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authsim: "+format+"\n", args...)
	os.Exit(1)
}
