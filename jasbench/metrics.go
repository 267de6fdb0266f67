package main

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression; BENCHMARK.json
// carries the same list (TestCatalogMatchesBenchmarkJSON).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.12},
	{Name: "op_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.12},
	{Name: "op_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "success_pct", Unit: "%", Better: "higher", Bound: 0.01},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reads 0 on that workload (NOTES.md maps each metric to the
// workloads it applies to), so every traced output has one schema.
var perLayer = []metricDef{
	// core: timed calls into the characterization pipeline, per op.
	{Name: "core.request_level_ms", Unit: "ms", Better: "lower"},
	{Name: "core.detail_ms", Unit: "ms", Better: "lower"},
	{Name: "core.crosschecks_ms", Unit: "ms", Better: "lower"},
	{Name: "core.render_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sims.request_level", Unit: "count", Better: "lower"},
	{Name: "core.sims.detail", Unit: "count", Better: "lower"},
	{Name: "core.sims.variant", Unit: "count", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	// Layers below core, from the layer probe.
	{Name: "sim.step_ms.rl", Unit: "ms", Better: "lower"},
	{Name: "sim.step_ms.detail", Unit: "ms", Better: "lower"},
	{Name: "sim.build_sut_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.window_us", Unit: "us", Better: "lower"},
	{Name: "server.execute_us", Unit: "us", Better: "lower"},
	{Name: "server.emit_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "server.requests", Unit: "count", Better: "higher"},
	{Name: "isa.next_ns", Unit: "ns", Better: "lower"},
	{Name: "isa.detail_instr", Unit: "count", Better: "lower"},
	{Name: "db.script_us.jas2004", Unit: "us", Better: "lower"},
	{Name: "db.script_us.dataanalytics", Unit: "us", Better: "lower"},
	{Name: "db.script_us.virtweb", Unit: "us", Better: "lower"},
	{Name: "db.script_us.trade6", Unit: "us", Better: "lower"},
	{Name: "db.wal_records", Unit: "count", Better: "lower"},
	{Name: "db.pool_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "jvm.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "jvm.gcs", Unit: "count", Better: "lower"},
	{Name: "power4.shard_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "power4.fused_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "power4.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "power4.merge_stalls", Unit: "count", Better: "lower"},
	{Name: "power4.cpi", Unit: "ratio", Better: "lower"},
	{Name: "hpm.tick_us", Unit: "us", Better: "lower"},
	// service: jasd round trips by request kind, and its set-up cost.
	{Name: "service.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.report_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.figure_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stream_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.status_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.metrics_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cold_job_ms", Unit: "ms", Better: "lower"},
	{Name: "service.sims_during_ops", Unit: "count", Better: "lower"},
	{Name: "store.writes", Unit: "count", Better: "lower"},
	{Name: "store.bytes", Unit: "bytes", Better: "lower"},
	// Self time per layer: per traced op for the op-phase layers, per
	// probe for the layers the probe drives.
	{Name: "op.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "service.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.self_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "db.self_ms", Unit: "ms", Better: "lower"},
	{Name: "jvm.self_ms", Unit: "ms", Better: "lower"},
	{Name: "isa.self_ms", Unit: "ms", Better: "lower"},
	{Name: "power4.self_ms", Unit: "ms", Better: "lower"},
	{Name: "hpm.self_ms", Unit: "ms", Better: "lower"},
	// Tracing overhead: traced minus untraced op_p50_ms, from alternating
	// ops of the traced run.
	{Name: "trace.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.untraced_op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower"},
}

// opLayers are the layers whose spans sit inside timed ops; their self
// times are reported per traced op. The rest come from the layer probe.
var opLayers = map[string]bool{"op": true, "core": true, "service": true}
