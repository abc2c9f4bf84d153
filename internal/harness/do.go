package harness

import (
	"context"
	"errors"
	"sync"

	"authpoint/internal/telemetry"
)

// Do runs fn(i) for i in [0, n) on the runner's worker pool — the one pool
// RunAll and the campaign engine (campaign.Run) both dispatch through. On
// the first error the context is cancelled, indexes not yet dispatched are
// skipped, and the returned error is deterministically the lowest-index
// failure (cancellation fallout on skipped indexes never wins). With no
// failures it returns ctx's error, if any. Each call's context carries its
// worker index (telemetry.Worker).
func (r *Runner) Do(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if r.Meter != nil {
		r.Meter.AddTotal(n)
	}
	workers := r.workers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu          sync.Mutex
		firstErr    error
		firstErrIdx = -1
	)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Each worker's context carries its index, so campaign layers can
		// stamp telemetry records with the worker that ran each unit.
		wctx := telemetry.WithWorker(ctx, w)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				err := fn(wctx, idx)
				if r.Meter != nil {
					r.Meter.Tick(1)
				}
				if err == nil {
					continue
				}
				mu.Lock()
				if !errors.Is(err, context.Canceled) && (firstErrIdx < 0 || idx < firstErrIdx) {
					firstErr, firstErrIdx = err, idx
					cancel()
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
