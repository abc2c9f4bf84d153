package pipeline

import "fmt"

// Hooks for the scheduler invariant tests, which drive full machines from
// the external test package.

// stepCheckPort runs f at the top of every Tick, which Step calls first:
// f sees the state the previous Step (and any SkipTo since) left.
type stepCheckPort struct {
	MemPort
	f func()
}

func (p stepCheckPort) Tick(now uint64) {
	p.f()
	p.MemPort.Tick(now)
}

// SetStepCheck makes f run at the start of every Step, before any stage
// acts, so it sees the state each earlier Step left. Check once more after
// the run for the last Step.
func (c *Core) SetStepCheck(f func()) { c.mem = stepCheckPort{c.mem, f} }

// CheckScheduler verifies the issue-scheduler bitmaps against the RUU: a
// slot's waitMask bit is set exactly when the slot holds a live waiting
// entry, its readyMask bit exactly when that entry is also an issue
// candidate (so readyMask ⊆ waitMask), and the waiting count matches.
func (c *Core) CheckScheduler() error {
	waiting := 0
	for idx := range c.ruu {
		e := &c.ruu[idx]
		live := (idx-c.head+c.cfg.RUUSize)%c.cfg.RUUSize < c.count
		wantWait := live && e.valid && e.state == stWaiting
		wantReady := wantWait && e.issueCandidate()
		wait, ready := maskHas(c.waitMask, idx), maskHas(c.readyMask, idx)
		if ready && !wait {
			return fmt.Errorf("cycle %d slot %d: ready bit outside waitMask", c.now, idx)
		}
		if wait != wantWait {
			return fmt.Errorf("cycle %d slot %d: waitMask bit %v, entry waiting %v", c.now, idx, wait, wantWait)
		}
		if ready != wantReady {
			return fmt.Errorf("cycle %d slot %d (pc %#x %v): readyMask bit %v, issue candidate %v (srcTag %v, addrValid %v)",
				c.now, idx, e.pc, e.inst.Op, ready, wantReady, e.srcTag[:e.nsrc], e.addrValid)
		}
		if wantWait {
			waiting++
		}
	}
	if waiting != c.waiting {
		return fmt.Errorf("cycle %d: %d waiting entries, counter says %d", c.now, waiting, c.waiting)
	}
	return nil
}

func maskHas(m []uint64, idx int) bool { return m[idx>>6]&(1<<(idx&63)) != 0 }
