package secmem

import (
	"math/rand"
	"sort"
	"testing"
)

// TestLastRequestAtCursor pins LastRequestAt's resume-from-last-answer
// cursor against a binary search of the arrival sequence. Arrivals are
// appended monotone while queries mostly advance, sometimes repeat, and
// sometimes go back in time.
func TestLastRequestAtCursor(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &Controller{}
		now := uint64(0)
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 4: // a request arrives now or later, never before the last
				c.arriveCycle = append(c.arriveCycle, max(lastArrival(c), now+uint64(rng.Intn(60))))
			case r < 9:
				now += uint64(rng.Intn(8))
			default:
				now -= min(now, uint64(rng.Intn(100)))
			}
			q := now
			if rng.Intn(8) == 0 {
				q = now + uint64(rng.Intn(50)) // a drain-variant query ahead of the clock
			}
			want := uint64(sort.Search(len(c.arriveCycle), func(i int) bool { return c.arriveCycle[i] > q }))
			if got := c.LastRequestAt(q); got != want {
				t.Fatalf("seed %d step %d: LastRequestAt(%d) = %d, want %d", seed, step, q, got, want)
			}
		}
	}
}

func lastArrival(c *Controller) uint64 {
	if n := len(c.arriveCycle); n > 0 {
		return c.arriveCycle[n-1]
	}
	return 0
}
