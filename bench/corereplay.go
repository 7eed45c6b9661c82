package main

import (
	"time"

	"zombiessd/internal/core"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/stats"
	"zombiessd/internal/trace"
)

// coreTimedEvery is the stride of writes whose ledger and pool calls are
// timed one by one in the standalone core replay; timing every call would
// double the replay's cost.
const coreTimedEvery = 16

// opTimer times one call into a histogram when on.
type opTimer struct {
	on bool
	t  time.Time
}

func (o *opTimer) start() {
	if o.on {
		o.t = time.Now()
	}
}

func (o *opTimer) stop(h *stats.Histogram) {
	if o.on {
		h.Add(time.Since(o.t).Nanoseconds())
	}
}

// coreReplay replays the write stream of traces through the public core
// API alone, as a DVP device drives it: bump the value's popularity, look
// the value up among the dead, then pool the page the write killed. Pages
// are numbered in write order, so there is no flash, GC or timing model.
// Tenants replay one after the other over their own page ranges.
func coreReplay(traces []sim.TenantTrace, capacity int) map[string]float64 {
	ledger := core.NewLedger()
	pool := core.NewMQPool(core.MQConfig{Queues: 8, Capacity: capacity, DefaultLifetime: 8192}, ledger)
	type page struct {
		h       trace.Hash
		ppn     ssd.PPN
		written bool
	}
	pages := make([]page, sim.TotalFootprint(traces))
	var bump, lookup, insert stats.Histogram

	start := time.Now()
	var next ssd.PPN
	var tick core.Tick
	var base int64
	for _, tt := range traces {
		for _, rec := range tt.Recs {
			if rec.Op != trace.OpWrite {
				continue
			}
			tick++
			op := opTimer{on: tick%coreTimedEvery == 0}
			op.start()
			ledger.Bump(rec.Hash)
			op.stop(&bump)
			op.start()
			ppn, hit := pool.Lookup(rec.Hash, tick)
			op.stop(&lookup)
			if !hit {
				ppn = next
				next++
			}
			p := &pages[base+int64(rec.LBA)]
			if p.written {
				op.start()
				pool.Insert(p.h, p.ppn, tick)
				op.stop(&insert)
			}
			*p = page{h: rec.Hash, ppn: ppn, written: true}
		}
		base += tt.Footprint
	}
	return map[string]float64{
		"core.replay_s":      time.Since(start).Seconds(),
		"core.bump_ns_p50":   quantile(&bump, 0.5),
		"core.lookup_ns_p50": quantile(&lookup, 0.5),
		"core.insert_ns_p50": quantile(&insert, 0.5),
	}
}
