package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"zombiessd/internal/sim"
	"zombiessd/internal/stats"
	"zombiessd/internal/telemetry"
)

// repResult is one repetition of one workload, measured inside the process
// that replayed it. A child process prints it as JSON for the parent.
type repResult struct {
	Requests int64 `json:"requests"`

	// Violations counts logical pages that did not read back their last
	// acknowledged content.
	Violations     int64  `json:"violations"`
	FirstViolation string `json:"first_violation,omitempty"`

	GenS       float64 `json:"gen_s"`
	NewDeviceS float64 `json:"newdevice_s"`
	// RunS is the wall time of sim.RunTenants, preconditioning included.
	RunS       float64 `json:"run_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	// PeakRSSMB is the replaying process's maximum resident set; the
	// parent fills it in from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`

	// Sim holds the sim_* end-to-end metrics and ReadSamples the number of
	// reads behind sim_read_p99_us. Digest hashes the whole simulated
	// result, so repetitions can be checked for exact agreement.
	Sim         map[string]float64 `json:"sim"`
	ReadSamples int64              `json:"read_samples"`
	Digest      string             `json:"digest"`

	// Layers and Spans are filled by traced repetitions only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// runRep generates the workload at seed with n requests, builds its device,
// replays it through sim.RunTenants and reads every page back. A traced
// repetition also times every device call, replays the write stream
// through the core pool on its own, and writes a CPU profile of the replay
// to profilePath when that is not empty.
func runRep(w *workloadSpec, seed, n int64, traced bool, profilePath string) (*repResult, error) {
	spans := newSpanLog(time.Now())
	res := &repResult{}

	t := time.Now()
	traces, err := sim.GenerateTenants(w.tenants, n, seed)
	if err != nil {
		return nil, err
	}
	res.GenS = spans.phase("gen", t)
	for _, tt := range traces {
		res.Requests += int64(len(tt.Recs))
	}
	footprint := sim.TotalFootprint(traces)

	t = time.Now()
	cfg := w.device(footprint, n)
	dev, err := sim.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	res.NewDeviceS = spans.phase("newdevice", t)

	ack := newAckRecorder(dev, footprint)
	var replayed sim.Device = ack
	var timer *timingRecorder
	if traced {
		timer = newTimingRecorder(ack, cfg.Kind == sim.KindDVP || cfg.Kind == sim.KindDVPDedup)
		replayed = timer
	}
	opts := w.engine
	opts.PreconditionPages = footprint
	opts.LogicalPages = footprint

	// Collect the generator's garbage now, so the replay pays only for
	// its own.
	runtime.GC()
	var profile *os.File
	if profilePath != "" {
		if profile, err = os.Create(profilePath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(profile); err != nil {
			profile.Close()
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t = time.Now()
	if timer != nil {
		timer.start = t
	}
	mr, err := sim.RunTenants(replayed, traces, opts)
	end := time.Now()
	if profile != nil {
		pprof.StopCPUProfile()
		if cerr := profile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	res.RunS = end.Sub(t).Seconds()
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Mallocs = after.Mallocs - before.Mallocs

	t = time.Now()
	bad, first := ack.verify()
	if bad > 0 {
		res.Violations = bad
		res.FirstViolation = fmt.Sprintf("LPN %d does not read back its last acknowledged write", first)
	}
	verifyEnd := time.Now()

	res.Sim, res.ReadSamples = simMetrics(mr, res.Requests), mr.Reads.Count
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", mr)))
	res.Digest = hex.EncodeToString(sum[:])

	if timer != nil {
		res.Layers = layerMetrics(res, mr, timer, end, &before, &after, cfg.Telemetry)
		spans.add("precondition", timer.start, timer.replayStart)
		replay := spans.add("replay", timer.replayStart, end)
		spans.add("verify", t, verifyEnd)
		spans.calls(timer.spanCalls(), replay)
		// The device is garbage now; collect it so the core replay below
		// does not pay for it.
		runtime.GC()
		t = time.Now()
		for k, v := range coreReplay(traces, poolEntries(n)) {
			res.Layers[k] = v
		}
		spans.phase("core-replay", t)
		res.Spans = spans.events
	}
	return res, nil
}

// simMetrics extracts the sim_* end-to-end metrics of a replay of
// requests trace records.
func simMetrics(mr sim.MultiResult, requests int64) map[string]float64 {
	m := mr.Metrics
	return map[string]float64{
		"sim_host_programs":   float64(m.HostPrograms()),
		"sim_flash_erases":    float64(m.FlashErases),
		"sim_write_amp":       m.WriteAmplification(),
		"sim_mean_latency_us": mr.All.Mean,
		"sim_read_p99_us":     float64(mr.Reads.P99),
		"sim_p999_us":         float64(mr.Tenants[0].P999),
		// Requests shed by queue-depth admission or refused by a read-only
		// device leave no latency sample.
		"sim_served_pct": 100 * float64(mr.All.Count) / float64(requests),
	}
}

// layerMetrics computes the per-layer metrics of a traced replay that
// ended at end.
func layerMetrics(res *repResult, mr sim.MultiResult, r *timingRecorder, end time.Time,
	before, after *runtime.MemStats, tel *telemetry.Telemetry) map[string]float64 {
	m := mr.Metrics
	replayS := end.Sub(r.replayStart).Seconds()
	writeNS, readNS := r.writes.Sum(), r.reads.Sum()
	var shed, maxQueue int64
	for _, t := range mr.Tenants {
		shed += t.Rejected
		if int64(t.MaxQueue) > maxQueue {
			maxQueue = int64(t.MaxQueue)
		}
	}
	L := map[string]float64{
		"workload.gen_s":     res.GenS,
		"sim.newdevice_s":    res.NewDeviceS,
		"sim.precond_s":      r.replayStart.Sub(r.start).Seconds(),
		"sim.precond_writes": float64(r.precondWrites),
		"sim.replay_s":       replayS,
		"sim.write_calls":    float64(r.writes.Count()),
		"sim.write_s":        float64(writeNS) / 1e9,
		"sim.write_ns_p50":   quantile(&r.writes, 0.50),
		"sim.write_ns_p99":   quantile(&r.writes, 0.99),
		"sim.write_ns_p999":  quantile(&r.writes, 0.999),
		"sim.read_calls":     float64(r.reads.Count()),
		"sim.read_s":         float64(readNS) / 1e9,
		"sim.read_ns_p50":    quantile(&r.reads, 0.50),
		"sim.read_ns_p99":    quantile(&r.reads, 0.99),
		"sim.engine_self_s":  replayS - float64(writeNS+readNS)/1e9,
		"sim.shed_requests":  float64(shed),
		"sim.max_queue":      float64(maxQueue),

		"core.revived":           float64(m.Revived),
		"core.revived_write_pct": pct(r.revivedNS, writeNS),
		"core.pool_hits":         float64(m.Pool.Hits),
		"core.pool_misses":       float64(m.Pool.Misses),
		"core.pool_inserts":      float64(m.Pool.Inserts),
		"core.pool_evictions":    float64(m.Pool.Evictions),
		"core.pool_drops":        float64(m.Pool.Drops),
		"core.pool_hit_pct":      pct(m.Pool.Hits, m.Pool.Hits+m.Pool.Misses),

		"ftl.gc_calls":       float64(r.gcCalls.Count()),
		"ftl.gc_call_s":      float64(r.gcCalls.Sum()) / 1e9,
		"ftl.gc_call_ns_p50": quantile(&r.gcCalls, 0.50),
		"ftl.gc_runs":        float64(m.GC.Runs),
		"ftl.gc_relocated":   float64(m.GC.Relocated),
		"ftl.gc_erased":      float64(m.GC.Erased),
		"ftl.partial_pages":  float64(m.GC.PartialPages),

		"dftl.miss_calls":     float64(r.missCalls),
		"dftl.miss_call_pct":  pct(r.missNS, writeNS+readNS),
		"dftl.hit_pct":        pct(m.Dftl.Hits, m.Dftl.Hits+m.Dftl.Misses),
		"dftl.misses":         float64(m.Dftl.Misses),
		"dftl.writebacks":     float64(m.Dftl.Writebacks),
		"dftl.trans_programs": float64(m.Dftl.TransPrograms),
		"dftl.trans_gc_runs":  float64(m.Dftl.TransGCRuns),
		"dftl.gc_map_rmws":    float64(m.Dftl.GCMapRMWs),

		"ssd.flash_reads":        float64(m.FlashReads),
		"ssd.flash_programs":     float64(m.FlashPrograms),
		"ssd.flash_erases":       float64(m.FlashErases),
		"ssd.suspensions":        float64(m.Suspensions),
		"ssd.mean_chip_util_pct": 100 * mr.MeanChipUtil,
		"ssd.max_chip_util_pct":  100 * mr.MaxChipUtil,

		"dedup.hits":              float64(m.DedupHits),
		"rain.parity_programs":    float64(m.Rain.ParityPrograms),
		"wbuf.absorbed":           float64(m.BufferAbsorbed),
		"wbuf.read_hits":          float64(m.BufferReadHits),
		"health.throttled_writes": float64(mr.Health.ThrottledWrites),
		"health.rejected":         float64(mr.Health.RejectedWrites + mr.Health.RejectedReads),

		"telemetry.trace_events":   float64(len(tel.Tracer().Events())) + float64(tel.Tracer().Dropped()),
		"telemetry.dropped_events": float64(tel.Tracer().Dropped()),

		"go.gc_cycles":   float64(after.NumGC - before.NumGC),
		"go.gc_pause_ms": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		"go.heap_end_mb": float64(after.HeapInuse) / (1 << 20),
	}
	var phases [telemetry.NumPhases]int64
	var latency int64
	if a := tel.Attribution(); a != nil {
		phases, latency = a.Totals()
	}
	for i, p := range phaseNames {
		L["telemetry.phase_"+p+"_pct"] = pct(phases[i], latency)
	}
	return L
}

// pct returns 100·part/whole, or 0 for an empty whole.
func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// quantile returns the q-quantile of h, interpolated linearly inside the
// bucket that holds its rank, so that it moves with the samples rather
// than stepping from one bucket bound to the next.
func quantile(h *stats.Histogram, q float64) float64 {
	rank := q * float64(h.Count())
	var seen float64
	var out float64
	h.Buckets(func(lo, hi, count int64) bool {
		if seen+float64(count) < rank {
			seen += float64(count)
			return true
		}
		if hi > h.Max()+1 {
			hi = h.Max() + 1
		}
		out = float64(lo) + float64(hi-lo)*(rank-seen)/float64(count)
		return false
	})
	return out
}
