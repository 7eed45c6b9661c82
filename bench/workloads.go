package main

import (
	"fmt"

	"zombiessd/internal/core"
	"zombiessd/internal/dftl"
	"zombiessd/internal/experiments"
	"zombiessd/internal/ftl"
	"zombiessd/internal/rain"
	"zombiessd/internal/sim"
	"zombiessd/internal/ssd"
	"zombiessd/internal/telemetry"
	"zombiessd/internal/workload"
)

// workloadSpec is one benchmark workload: the tenant streams to generate,
// the device to build for their footprint, and how the engine drives it.
type workloadSpec struct {
	name string
	// tenants lists the streams; each gets an equal share of the request
	// budget unless it sets its own.
	tenants []sim.TenantConfig
	// device builds the device configuration for a footprint at a trace
	// length of n requests (the pool scales with n as in the experiments).
	// Each call returns fresh state, such as a new telemetry instance.
	device func(footprint, n int64) sim.Config
	// engine is the arbitration set-up; precondition and logical pages are
	// filled in from the footprint.
	engine sim.EngineOptions
}

// workloads are the four benchmark workloads, in the order a full run
// replays them. Why each exists is recorded in BENCHMARK.json and README.md.
var workloads = []*workloadSpec{
	{
		name:    "mail-dvp",
		tenants: single("mail"),
		device:  func(fp, n int64) sim.Config { return paperDevice(sim.KindDVP, fp, n, 0.75) },
	},
	{
		name:    "hadoop-dftl",
		tenants: single("hadoop"),
		device: func(fp, n int64) sim.Config {
			cfg := paperDevice(sim.KindBaseline, fp, n, 0.50)
			cfg.DFTL = dftl.Config{Enable: true, CMTFrames: smallCMT(fp, cfg.Geometry.PageSize), BatchEvict: true}
			return cfg
		},
	},
	{
		name:    "mail-telemetry",
		tenants: single("mail"),
		device: func(fp, n int64) sim.Config {
			cfg := paperDevice(sim.KindDVP, fp, n, 0.75)
			cfg.Telemetry = telemetry.New(telemetry.Config{Enabled: true})
			return cfg
		},
	},
	{
		name:    "antag-tenants",
		tenants: antagonistPair(),
		device: func(fp, n int64) sim.Config {
			cfg := paperDevice(sim.KindDVPDedup, fp, n, 0.70)
			cfg.WriteBufferPages = 1024
			cfg.Store.Preempt = ftl.PreemptConfig{PartialK: 8, Lookahead: 2, MaxSuspends: 4}
			cfg.RAIN = rain.Config{Enable: true}
			cfg.Health = experiments.DefaultChaosHealthPlan()
			return cfg
		},
		engine: sim.EngineOptions{Arbiter: sim.ArbWRR, QueueDepth: 8, DeviceSlots: 8},
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// single is one tenant replaying a Table II profile, which RunTenants
// drives exactly as sim.Run does.
func single(profile string) []sim.TenantConfig {
	p, _ := workload.ProfileByName(profile)
	return []sim.TenantConfig{{Name: "host", Profile: p, Weight: 1}}
}

// antagonistPair is the tenantsweep isolation arm: a mail victim at WRR
// weight 4 sharing the drive with a trans antagonist that arrives 4× as
// fast into a private content space.
func antagonistPair() []sim.TenantConfig {
	victim, _ := workload.ProfileByName("mail")
	antag, _ := workload.ProfileByName("trans")
	antag.MeanInterarrivalUS /= 4
	antag.ValueBase = 1 << 40
	return []sim.TenantConfig{
		{Name: "victim-mail", Profile: victim, Weight: 4},
		{Name: "antag-trans", Profile: antag, Weight: 1},
	}
}

// poolEntries is the paper's DVP-200K pool scaled to a trace of n requests;
// at the paper's trace length it is exactly 200,000 entries.
func poolEntries(n int64) int {
	return experiments.Options{Requests: n}.ScaleEntries(200_000)
}

// paperDevice is the device every full-simulation experiment builds
// (experiments.Options.deviceConfig) with every optional feature off:
// the paper's latencies, GC at two free blocks, popularity-aware GC on
// the DVP architectures, and the MQ pool with 8 queues.
func paperDevice(kind sim.Kind, footprint, n int64, util float64) sim.Config {
	weight := 0.0
	if kind == sim.KindDVP || kind == sim.KindDVPDedup {
		weight = sim.DefaultPopularityWeight
	}
	return sim.Config{
		Geometry: sim.GeometryFor(footprint, util),
		Latency:  ssd.PaperLatency(),
		Store: ftl.StoreConfig{
			GCFreeBlockThreshold: 2,
			PopularityWeight:     weight,
		},
		LogicalPages: footprint,
		Kind:         kind,
		PoolKind:     sim.PoolMQ,
		MQ:           core.MQConfig{Queues: 8, Capacity: poolEntries(n), DefaultLifetime: 8192},
	}
}

// smallCMT is the dftlsweep "small" arm: a quarter of the translation
// pages the footprint needs, at least two.
func smallCMT(footprint int64, pageSize int) int {
	epp := int64(dftl.EntriesPerPage(pageSize))
	frames := int((footprint+epp-1)/epp) / 4
	if frames < 2 {
		frames = 2
	}
	return frames
}
