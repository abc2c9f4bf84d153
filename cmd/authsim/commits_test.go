package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"authpoint/internal/asm"
	"authpoint/internal/interp"
	"authpoint/internal/policy"
	"authpoint/internal/sim"
)

// strideSrc walks a buffer one L2 line at a time, so under
// authen-then-commit its loads stall the commit stream and the gap
// histogram has more than the back-to-back buckets.
const strideSrc = `
_start:
	la   r2, buf
	addi r3, r0, 64
loop:
	ld   r1, 0(r2)
	add  r4, r4, r1
	addi r2, r2, 64
	addi r3, r3, -1
	bne  r3, r0, loop
	out  r4, 3
	halt
.data
buf: .space 4096
`

// TestCommitLog pins the commit views: the unfiltered gap counts cover every
// committed instruction once, and the trace prints exactly min(limit,
// committed) lines whose PCs follow the in-order interpreter's program
// order at non-decreasing commit cycles.
func TestCommitLog(t *testing.T) {
	p, err := asm.Assemble(strideSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := interp.New(p)
	var order []uint64
	for !ref.Halted() {
		if _, _, faulted := ref.Fault(); faulted {
			t.Fatal("reference run faulted")
		}
		order = append(order, ref.PC)
		ref.Step()
	}

	for _, limit := range []int{0, 7, len(order), len(order) + 10} {
		cfg := sim.DefaultConfig()
		cfg.Policy = policy.ThenCommit
		m, err := sim.NewMachine(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		cl := newCommitLog(&out, limit, true)
		cl.attach(m)
		res, err := m.Run()
		if err != nil || res.Reason != sim.StopHalt {
			t.Fatalf("run: %v (%v)", err, res.Reason)
		}
		if res.Insts != uint64(len(order)) {
			t.Fatalf("committed %d instructions, interpreter ran %d", res.Insts, len(order))
		}

		var sum uint64
		for _, n := range cl.gaps {
			sum += n
		}
		if sum != res.Insts {
			t.Errorf("limit %d: gap counts sum to %d, committed %d", limit, sum, res.Insts)
		}
		if len(cl.gaps) < 3 {
			t.Errorf("limit %d: %d gap buckets; the stride loads should stall commit", limit, len(cl.gaps))
		}

		lines := strings.SplitAfter(out.String(), "\n")
		lines = lines[:len(lines)-1] // the text after the final newline
		want := min(limit, len(order))
		if len(lines) != want {
			t.Fatalf("limit %d: printed %d lines, want %d", limit, len(lines), want)
		}
		var last uint64
		for i, line := range lines {
			f := strings.Fields(line)
			cycle, err1 := strconv.ParseUint(f[0], 10, 64)
			pc, err2 := strconv.ParseUint(f[1], 0, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("limit %d: line %d does not parse: %q", limit, i, line)
			}
			if pc != order[i] {
				t.Errorf("limit %d: line %d commits pc %#x, program order has %#x", limit, i, pc, order[i])
			}
			if cycle < last {
				t.Errorf("limit %d: line %d commits at cycle %d, before %d", limit, i, cycle, last)
			}
			last = cycle
		}
	}
}
