package main

import (
	"container/heap"
	"sort"
	"time"

	"zombiessd/internal/ftl"
	"zombiessd/internal/health"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
	"zombiessd/internal/trace"
)

// passthrough forwards Metrics and the optional interfaces sim.RunTenants
// type-asserts on its device (Store, Bus, HealthStats, ReadHash). A
// recorder that dropped one would silently switch off the tenant ledger,
// telemetry, chip utilisation or the health report, and so change what is
// measured.
type passthrough struct{ inner sim.Device }

func (p passthrough) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) { return p.inner.Read(lpn, now) }

func (p passthrough) Metrics() sim.DeviceMetrics { return p.inner.Metrics() }

func (p passthrough) Store() *ftl.Store { return sim.StoreOf(p.inner) }

func (p passthrough) Bus() *ssd.Bus {
	if br, ok := p.inner.(interface{ Bus() *ssd.Bus }); ok {
		return br.Bus()
	}
	return nil
}

func (p passthrough) HealthStats() health.Stats {
	if hs, ok := p.inner.(interface{ HealthStats() health.Stats }); ok {
		return hs.HealthStats()
	}
	return health.Stats{}
}

func (p passthrough) ReadHash(lpn ftl.LPN) (trace.Hash, bool) {
	if hr, ok := p.inner.(sim.HashReader); ok {
		return hr.ReadHash(lpn)
	}
	return trace.Hash{}, false
}

// ackRecorder is the correctness oracle's device side: it keeps the last
// acknowledged content of every logical page, starting from the
// preconditioning fill, and records a write only when the device returned
// no error for it.
type ackRecorder struct {
	passthrough
	acked []trace.Hash
}

func newAckRecorder(inner sim.Device, footprint int64) *ackRecorder {
	acked := make([]trace.Hash, footprint)
	for lpn := range acked {
		acked[lpn] = sim.PreconditionHash(int64(lpn))
	}
	return &ackRecorder{passthrough: passthrough{inner}, acked: acked}
}

// Write implements sim.Device.
func (r *ackRecorder) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	done, err := r.inner.Write(lpn, h, now)
	if err == nil {
		r.acked[lpn] = h
	}
	return done, err
}

// verify reads every logical page back and returns how many do not hold
// their last acknowledged content, and the first such page.
func (r *ackRecorder) verify() (bad int64, first ftl.LPN) {
	for lpn, want := range r.acked {
		if got, ok := r.ReadHash(ftl.LPN(lpn)); !ok || got != want {
			if bad == 0 {
				first = ftl.LPN(lpn)
			}
			bad++
		}
	}
	return bad, first
}

// layerCounts are the layer counters a timing recorder reads around each
// device call to tell which layers did work inside it.
type layerCounts struct{ gcRuns, cmtMisses, revived int64 }

func (c layerCounts) sub(prev layerCounts) layerCounts {
	return layerCounts{c.gcRuns - prev.gcRuns, c.cmtMisses - prev.cmtMisses, c.revived - prev.revived}
}

// call is one timed device call after preconditioning.
type call struct {
	seq   int64
	write bool
	start time.Time
	dur   time.Duration
	delta layerCounts
}

// sampleEvery and slowestKept bound the device-call spans a traced run
// keeps: every 4096th call shows the typical call, the slowest 256 show
// the host-time tail.
const (
	sampleEvery = 4096
	slowestKept = 256
)

// timingRecorder times every device call from outside the device. Calls
// before the engine's first Metrics read are the preconditioning fill;
// after it, each call's wall time goes into a histogram and is also
// charged to every layer whose counters moved during the call.
type timingRecorder struct {
	passthrough
	store *ftl.Store
	// Which counters to read: revivals need a Metrics call per device call,
	// so architectures that cannot revive skip it.
	probeRevived, probeCMT bool

	// start is when sim.RunTenants was called; replayStart when
	// preconditioning ended.
	start, replayStart time.Time
	replaying          bool
	precondWrites      int64

	writes, reads, gcCalls stats.Histogram // ns per call
	revivedNS, missNS      int64
	missCalls              int64

	calls   int64
	sampled []call
	slowest callHeap
}

func newTimingRecorder(inner sim.Device, probeRevived bool) *timingRecorder {
	store := sim.StoreOf(inner)
	return &timingRecorder{
		passthrough:  passthrough{inner},
		store:        store,
		probeRevived: probeRevived,
		probeCMT:     store.DftlEnabled(),
	}
}

// Metrics implements sim.Device. The engine reads metrics first right
// after preconditioning, which starts the timed replay.
func (r *timingRecorder) Metrics() sim.DeviceMetrics {
	if !r.replaying {
		r.replaying = true
		r.replayStart = time.Now()
	}
	return r.inner.Metrics()
}

func (r *timingRecorder) counts() layerCounts {
	c := layerCounts{gcRuns: r.store.GC().Runs}
	if r.probeCMT {
		c.cmtMisses = r.store.DftlStats().Misses
	}
	if r.probeRevived {
		c.revived = r.inner.Metrics().Revived
	}
	return c
}

// Write implements sim.Device.
func (r *timingRecorder) Write(lpn ftl.LPN, h trace.Hash, now ssd.Time) (ssd.Time, error) {
	if !r.replaying {
		r.precondWrites++
		return r.inner.Write(lpn, h, now)
	}
	before := r.counts()
	t0 := time.Now()
	done, err := r.inner.Write(lpn, h, now)
	d := time.Since(t0)
	r.record(true, t0, d, r.counts().sub(before))
	return done, err
}

// Read implements sim.Device.
func (r *timingRecorder) Read(lpn ftl.LPN, now ssd.Time) (ssd.Time, error) {
	before := r.counts()
	t0 := time.Now()
	done, err := r.inner.Read(lpn, now)
	d := time.Since(t0)
	r.record(false, t0, d, r.counts().sub(before))
	return done, err
}

func (r *timingRecorder) record(write bool, t0 time.Time, d time.Duration, delta layerCounts) {
	ns := d.Nanoseconds()
	if write {
		r.writes.Add(ns)
	} else {
		r.reads.Add(ns)
	}
	if delta.gcRuns > 0 {
		r.gcCalls.Add(ns)
	}
	if delta.revived > 0 {
		r.revivedNS += ns
	}
	if delta.cmtMisses > 0 {
		r.missCalls++
		r.missNS += ns
	}
	r.calls++
	c := call{seq: r.calls, write: write, start: t0, dur: d, delta: delta}
	if r.calls%sampleEvery == 0 {
		r.sampled = append(r.sampled, c)
	}
	if len(r.slowest) < slowestKept {
		heap.Push(&r.slowest, c)
	} else if d > r.slowest[0].dur {
		r.slowest[0] = c
		heap.Fix(&r.slowest, 0)
	}
}

// spanCalls returns the sampled and slowest calls, each once, in call
// order.
func (r *timingRecorder) spanCalls() []call {
	seen := make(map[int64]bool, len(r.sampled)+len(r.slowest))
	var out []call
	for _, c := range append(append([]call(nil), r.sampled...), r.slowest...) {
		if !seen[c.seq] {
			seen[c.seq] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// callHeap is a min-heap of calls by duration: its root is the fastest of
// the slowest calls kept so far.
type callHeap []call

func (h callHeap) Len() int           { return len(h) }
func (h callHeap) Less(i, j int) bool { return h[i].dur < h[j].dur }
func (h callHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *callHeap) Push(x any)        { *h = append(*h, x.(call)) }
func (h *callHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}
