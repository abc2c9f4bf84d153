package obs

// Bucket sets for the standard histograms. Cycle-valued buckets are sized
// around the reference crypto latencies (80-cycle decrypt, 74-cycle MAC) so
// the interesting structure — sub-MAC-latency gaps vs queueing pile-ups —
// lands in distinct buckets.
var (
	// CycleBuckets bound cycle-valued distributions (auth latency,
	// decrypt→auth gap).
	CycleBuckets = []uint64{0, 8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 160,
		192, 256, 384, 512, 768, 1024, 2048, 4096, 8192}
	// OccupancyBuckets bound the auth-queue depth distribution.
	OccupancyBuckets = []uint64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
)

// Metric names produced by the Hub. Exported so renderers and tests don't
// drift from the emitter.
const (
	MetricAuthLatency   = "auth.latency"         // enqueue→complete, cycles
	MetricAuthGap       = "auth.gap"             // decrypt-ready→auth-done, cycles
	MetricAuthOccupancy = "auth.queue_occupancy" // queue depth at each enqueue
	MetricSkipLen       = "fastforward.skip_len" // cycles per fast-forward jump
)

// Hub is the standard Sink: it fans events into an optional ring Tracer and
// derives the metrics registry (counters per event class, the auth-latency /
// decrypt→auth-gap / queue-occupancy histograms, and per-reason stall cycle
// totals). A Hub observes exactly one machine and is not safe for concurrent
// use.
type Hub struct {
	tracer *Tracer
	reg    *Registry

	authLat *Histogram
	authGap *Histogram
	authOcc *Histogram
	skipLen *Histogram

	// outstanding holds the completion cycles of enqueued-but-unfinished
	// auth requests. The queue completes strictly in order, so a FIFO
	// suffices; outHead indexes the logical front so draining never
	// reslices (the backing array is compacted in place and reused — the
	// steady-state hot loop must not allocate even with a hub attached).
	outstanding []uint64
	outHead     int

	stallBegin  [NumStallReasons]uint64
	stallOpen   [NumStallReasons]bool
	stallCycles [NumStallReasons]*Counter
	stallEvents [NumStallReasons]*Counter

	kindCounters [numKinds]*Counter
	cacheHits    [numTracks]*Counter
	cacheMisses  [numTracks]*Counter

	lastCycle uint64
}

// NewHub builds a hub. tracer may be nil (metrics only); metrics may be
// false (trace only).
func NewHub(tracer *Tracer, metrics bool) *Hub {
	h := &Hub{tracer: tracer}
	if metrics {
		h.reg = NewRegistry()
		h.authLat = h.reg.Histogram(MetricAuthLatency, CycleBuckets)
		h.authGap = h.reg.Histogram(MetricAuthGap, CycleBuckets)
		h.authOcc = h.reg.Histogram(MetricAuthOccupancy, OccupancyBuckets)
		for r := StallReason(0); r < NumStallReasons; r++ {
			h.stallCycles[r] = h.reg.Counter("stall." + r.String() + ".cycles")
			h.stallEvents[r] = h.reg.Counter("stall." + r.String() + ".events")
		}
		for _, k := range []Kind{EvFetch, EvDispatch, EvIssue, EvCommit, EvSquash} {
			h.kindCounters[k] = h.reg.Counter("pipe." + k.String())
		}
		h.kindCounters[EvAuthRequest] = h.reg.Counter("auth.requests")
		h.kindCounters[EvAuthComplete] = h.reg.Counter("auth.completes")
		h.kindCounters[EvAuthFail] = h.reg.Counter("auth.failures")
		h.kindCounters[EvSecFetch] = h.reg.Counter("sec.fetches")
		h.kindCounters[EvWriteBack] = h.reg.Counter("sec.writebacks")
		h.kindCounters[EvBusTxn] = h.reg.Counter("bus.txns")
		h.kindCounters[EvCryptOp] = h.reg.Counter("crypto.ops")
		// Skip counts, cycles and per-bound cycles are Perf's
		// (fastpath.skip.*); the hub keeps only the jump-length histogram.
		h.skipLen = h.reg.Histogram(MetricSkipLen, CycleBuckets)
	}
	return h
}

// Tracer returns the hub's tracer (nil when tracing is off).
func (h *Hub) Tracer() *Tracer { return h.tracer }

// Emit implements Sink.
func (h *Hub) Emit(e Event) {
	if h.tracer != nil {
		h.tracer.Emit(e)
	}
	if e.Cycle > h.lastCycle {
		h.lastCycle = e.Cycle
	}
	if h.reg == nil {
		return
	}
	if c := h.kindCounters[e.Kind]; c != nil {
		if e.Kind == EvSquash {
			c.Add(e.A)
		} else {
			c.Inc()
		}
	}
	switch e.Kind {
	case EvAuthRequest:
		// Occupancy at enqueue: drop the requests already done by now.
		for h.outHead < len(h.outstanding) && h.outstanding[h.outHead] <= e.Cycle {
			h.outHead++
		}
		if h.outHead == len(h.outstanding) {
			h.outstanding = h.outstanding[:0]
			h.outHead = 0
		} else if h.outHead > cap(h.outstanding)/2 {
			// Compact in place so the backing array is reused instead of
			// growing without bound as the head advances.
			n := copy(h.outstanding, h.outstanding[h.outHead:])
			h.outstanding = h.outstanding[:n]
			h.outHead = 0
		}
		h.outstanding = append(h.outstanding, e.B)
		h.authOcc.Observe(uint64(len(h.outstanding) - h.outHead))
	case EvAuthComplete:
		h.authLat.Observe(e.Cycle - e.A)
		gap := uint64(0)
		if e.Cycle > e.B {
			gap = e.Cycle - e.B
		}
		h.authGap.Observe(gap)
	case EvStallBegin:
		r := StallReason(e.A)
		h.stallBegin[r] = e.Cycle
		h.stallOpen[r] = true
		h.stallEvents[r].Inc()
	case EvStallEnd:
		r := StallReason(e.A)
		if h.stallOpen[r] {
			h.stallCycles[r].Add(e.Cycle - h.stallBegin[r])
			h.stallOpen[r] = false
		}
	case EvFetchGateWait:
		h.reg.Counter("sec.fetch_gate_wait_cycles").Add(e.A)
	case EvSkip:
		h.skipLen.Observe(e.A)
	case EvCacheHit, EvCacheMiss:
		hits, misses := h.cacheHits[e.Track], h.cacheMisses[e.Track]
		if hits == nil {
			name := "cache." + e.Track.String()
			hits = h.reg.Counter(name + ".hits")
			misses = h.reg.Counter(name + ".misses")
			h.cacheHits[e.Track], h.cacheMisses[e.Track] = hits, misses
		}
		if e.Kind == EvCacheHit {
			hits.Inc()
		} else {
			misses.Inc()
		}
	}
}

// Snapshot freezes the metrics (nil when the hub has metrics disabled).
// Stall intervals still open are closed at the newest cycle the hub has
// seen, so a run that ends mid-stall is charged the observed span.
func (h *Hub) Snapshot() *Snapshot {
	if h.reg == nil {
		return nil
	}
	s := h.reg.Snapshot()
	for r := StallReason(0); r < NumStallReasons; r++ {
		if h.stallOpen[r] && h.lastCycle > h.stallBegin[r] {
			s.Counters["stall."+r.String()+".cycles"] += h.lastCycle - h.stallBegin[r]
		}
	}
	return s
}
