package main

// metric is one benchmark metric as this program prints it. Per-layer
// metrics also name the end-to-end metric they should move and the
// workloads on which they do (all of them when onWorkloads is empty).
// Directions and bounds live only in BENCHMARK.json.
type metric struct {
	name, unit string

	moves       string
	onWorkloads []string
}

// endToEnd are the metrics of an untraced run, in print order. Host
// metrics time the simulator; sim_* metrics are the modelled SSD's results
// and repeat exactly for a seed.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "req_per_s", unit: "req/s"},
	{name: "alloc_bytes_per_req", unit: "B/req"},
	{name: "allocs_per_req", unit: "allocs/req"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "sim_host_programs", unit: "pages"},
	{name: "sim_flash_erases", unit: "blocks"},
	{name: "sim_write_amp", unit: "ratio"},
	{name: "sim_mean_latency_us", unit: "us"},
	{name: "sim_read_p99_us", unit: "us"},
	{name: "sim_p999_us", unit: "us"},
	{name: "sim_served_pct", unit: "%"},
}

const (
	mailDVP  = "mail-dvp"
	hadoop   = "hadoop-dftl"
	mailTel  = "mail-telemetry"
	antag    = "antag-tenants"
	reqPerS  = "req_per_s"
	setupS   = "setup_s"
	allocs   = "alloc_bytes_per_req"
	rss      = "peak_rss_mb"
	programs = "sim_host_programs"
	erases   = "sim_flash_erases"
	wa       = "sim_write_amp"
	readP99  = "sim_read_p99_us"
	p999     = "sim_p999_us"
	meanLat  = "sim_mean_latency_us"
	served   = "sim_served_pct"
)

// phaseNames are the latency-attribution phases of the telemetry layer in
// Phase order, spelled as metric-name suffixes.
var phaseNames = []string{"queue", "gc_blocked", "bus", "chip", "ecc_retry", "ctrl", "map_miss", "map_writeback"}

// perLayer are the metrics of a traced run, named <layer>.<metric>.
var perLayer = []metric{
	{name: "workload.gen_s", unit: "s", moves: setupS},
	{name: "sim.newdevice_s", unit: "s", moves: setupS},
	{name: "sim.precond_s", unit: "s", moves: reqPerS},
	{name: "sim.precond_writes", unit: "count", moves: reqPerS},
	{name: "sim.replay_s", unit: "s", moves: reqPerS},
	{name: "sim.write_calls", unit: "count", moves: reqPerS, onWorkloads: []string{mailDVP, mailTel}},
	{name: "sim.write_s", unit: "s", moves: reqPerS, onWorkloads: []string{mailDVP, mailTel}},
	{name: "sim.write_ns_p50", unit: "ns", moves: reqPerS, onWorkloads: []string{mailDVP, mailTel}},
	{name: "sim.write_ns_p99", unit: "ns", moves: reqPerS, onWorkloads: []string{mailDVP, mailTel}},
	{name: "sim.write_ns_p999", unit: "ns", moves: reqPerS, onWorkloads: []string{mailDVP, mailTel}},
	{name: "sim.read_calls", unit: "count", moves: reqPerS, onWorkloads: []string{hadoop}},
	{name: "sim.read_s", unit: "s", moves: reqPerS, onWorkloads: []string{hadoop}},
	{name: "sim.read_ns_p50", unit: "ns", moves: reqPerS, onWorkloads: []string{hadoop}},
	{name: "sim.read_ns_p99", unit: "ns", moves: reqPerS, onWorkloads: []string{hadoop}},
	{name: "sim.engine_self_s", unit: "s", moves: reqPerS, onWorkloads: []string{antag}},
	{name: "sim.shed_requests", unit: "count", moves: served, onWorkloads: []string{antag}},
	{name: "sim.max_queue", unit: "count", moves: served, onWorkloads: []string{antag}},

	{name: "core.revived", unit: "count", moves: programs, onWorkloads: []string{mailDVP}},
	{name: "core.revived_write_pct", unit: "%", moves: reqPerS, onWorkloads: []string{mailDVP}},
	{name: "core.pool_hits", unit: "count", moves: programs, onWorkloads: []string{mailDVP}},
	{name: "core.pool_misses", unit: "count", moves: programs, onWorkloads: []string{mailDVP}},
	{name: "core.pool_inserts", unit: "count", moves: programs, onWorkloads: []string{mailDVP}},
	{name: "core.pool_evictions", unit: "count", moves: programs, onWorkloads: []string{mailDVP}},
	{name: "core.pool_drops", unit: "count", moves: programs, onWorkloads: []string{mailDVP}},
	{name: "core.pool_hit_pct", unit: "%", moves: programs, onWorkloads: []string{mailDVP}},
	{name: "core.replay_s", unit: "s", moves: reqPerS, onWorkloads: []string{mailDVP}},
	{name: "core.bump_ns_p50", unit: "ns", moves: reqPerS, onWorkloads: []string{mailDVP}},
	{name: "core.lookup_ns_p50", unit: "ns", moves: reqPerS, onWorkloads: []string{mailDVP}},
	{name: "core.insert_ns_p50", unit: "ns", moves: reqPerS, onWorkloads: []string{mailDVP}},

	{name: "ftl.gc_calls", unit: "count", moves: reqPerS},
	{name: "ftl.gc_call_s", unit: "s", moves: reqPerS},
	{name: "ftl.gc_call_ns_p50", unit: "ns", moves: reqPerS},
	{name: "ftl.gc_runs", unit: "count", moves: erases},
	{name: "ftl.gc_relocated", unit: "count", moves: wa},
	{name: "ftl.gc_erased", unit: "count", moves: erases},
	{name: "ftl.partial_pages", unit: "count", moves: p999, onWorkloads: []string{antag}},

	{name: "dftl.miss_calls", unit: "count", moves: reqPerS, onWorkloads: []string{hadoop}},
	{name: "dftl.miss_call_pct", unit: "%", moves: allocs, onWorkloads: []string{hadoop}},
	{name: "dftl.hit_pct", unit: "%", moves: readP99, onWorkloads: []string{hadoop}},
	{name: "dftl.misses", unit: "count", moves: readP99, onWorkloads: []string{hadoop}},
	{name: "dftl.writebacks", unit: "count", moves: wa, onWorkloads: []string{hadoop}},
	{name: "dftl.trans_programs", unit: "count", moves: wa, onWorkloads: []string{hadoop}},
	{name: "dftl.trans_gc_runs", unit: "count", moves: wa, onWorkloads: []string{hadoop}},
	{name: "dftl.gc_map_rmws", unit: "count", moves: wa, onWorkloads: []string{hadoop}},

	{name: "ssd.flash_reads", unit: "count", moves: readP99},
	{name: "ssd.flash_programs", unit: "count", moves: p999},
	{name: "ssd.flash_erases", unit: "count", moves: p999},
	{name: "ssd.suspensions", unit: "count", moves: readP99, onWorkloads: []string{antag}},
	{name: "ssd.mean_chip_util_pct", unit: "%", moves: meanLat},
	{name: "ssd.max_chip_util_pct", unit: "%", moves: p999},

	{name: "dedup.hits", unit: "count", moves: programs, onWorkloads: []string{antag}},
	{name: "rain.parity_programs", unit: "count", moves: wa, onWorkloads: []string{antag}},
	{name: "wbuf.absorbed", unit: "count", moves: p999, onWorkloads: []string{antag}},
	{name: "wbuf.read_hits", unit: "count", moves: readP99, onWorkloads: []string{antag}},
	{name: "health.throttled_writes", unit: "count", moves: served, onWorkloads: []string{antag}},
	{name: "health.rejected", unit: "count", moves: served, onWorkloads: []string{antag}},

	{name: "telemetry.trace_events", unit: "count", moves: allocs, onWorkloads: []string{mailTel}},
	{name: "telemetry.dropped_events", unit: "count", moves: reqPerS, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_queue_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_gc_blocked_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_bus_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_chip_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_ecc_retry_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_ctrl_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_map_miss_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},
	{name: "telemetry.phase_map_writeback_pct", unit: "%", moves: readP99, onWorkloads: []string{mailTel}},

	{name: "go.gc_cycles", unit: "count", moves: reqPerS},
	{name: "go.gc_pause_ms", unit: "ms", moves: reqPerS},
	{name: "go.heap_end_mb", unit: "MB", moves: rss},
	{name: "bench.trace_overhead_pct", unit: "%", moves: reqPerS},
}
