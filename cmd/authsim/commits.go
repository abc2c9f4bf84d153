package main

import (
	"fmt"
	"io"
	"sort"

	"authpoint/internal/isa"
	"authpoint/internal/sim"
)

// commitLog watches a machine's commit stream: it prints the first limit
// commits as they retire, with cycle timestamps, and counts the cycles
// between consecutive commits when gaps is non-nil. Commit gaps make
// authentication stalls directly visible: under authen-then-commit,
// memory-bound code commits in bursts separated by verification waits.
type commitLog struct {
	w     io.Writer
	limit int
	gaps  map[uint64]uint64 // gap in cycles -> commits that followed it

	printed int
	last    uint64 // cycle of the previous commit
}

// newCommitLog prints up to limit commits to w and, with gap set, keeps the
// commit-gap histogram.
func newCommitLog(w io.Writer, limit int, gap bool) *commitLog {
	c := &commitLog{w: w, limit: limit}
	if gap {
		c.gaps = map[uint64]uint64{}
	}
	return c
}

// attach installs the log as m's commit hook; attach before Run.
func (c *commitLog) attach(m *sim.Machine) {
	m.Core.CommitHook = func(pc uint64, inst isa.Inst, result uint64) {
		now := m.Core.Now()
		gap := now - c.last
		c.last = now
		if c.gaps != nil {
			c.gaps[gap]++
		}
		if c.printed < c.limit {
			marker := ""
			if gap > 50 {
				marker = fmt.Sprintf("   <-- %d-cycle gap", gap)
			}
			fmt.Fprintf(c.w, "%10d  %#08x  %-28v res=%#x%s\n", now, pc, inst, result, marker)
			c.printed++
		}
	}
}

// summary prints the stop line and, when gaps are kept, the histogram
// without its noise buckets: gaps longer than 2 cycles that account for
// under 0.1% of the committed instructions.
func (c *commitLog) summary(res sim.Result) {
	fmt.Fprintf(c.w, "\nstopped: %v after %d cycles, %d instructions (IPC %.4f)\n",
		res.Reason, res.Cycles, res.Insts, res.IPC)
	if c.gaps == nil {
		return
	}
	fmt.Fprintln(c.w, "\ncommit-gap histogram (cycles-between-commits : count):")
	keys := make([]uint64, 0, len(c.gaps))
	for k := range c.gaps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if c.gaps[k] < res.Insts/1000 && k > 2 {
			continue
		}
		fmt.Fprintf(c.w, "  %6d : %d\n", k, c.gaps[k])
	}
}
