package main

// metricDef declares one reported metric. The tables below are the
// single source of the names, units, directions and bounds;
// BENCHMARK.json repeats them and a test keeps the two in step.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; the
	// self-check reports a larger difference between two runs of the
	// same code as unresolved. Per-layer metrics have none.
	bound float64
}

// endToEnd are the metrics a user of the system would see; every
// workload reports all nine from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"first_result_p50_us", "us", "lower", 0.25},
	{"touched_per_result", "nodes/node", "lower", 0.03},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"stored_bytes_per_xml_byte", "B/B", "lower", 0.01},
}

// perLayer are the metrics of single layers (layer = module name),
// produced by the traced run. A workload that never enters a layer
// reports 0 for it.
var perLayer = []metricDef{
	{name: "xpath.parse_us", unit: "us", better: "lower"},
	{name: "plan.build_rewrite_us", unit: "us", better: "lower"},
	{name: "plan.compile_us", unit: "us", better: "lower"},
	{name: "plan.reorders_per_query", unit: "count", better: "lower"},
	{name: "plan.replans_per_query", unit: "count", better: "lower"},
	{name: "plan.run_us", unit: "us", better: "lower"},
	{name: "plan.run_self_frac", unit: "ratio", better: "lower"},
	{name: "plan.cursor_first_batch_us", unit: "us", better: "lower"},
	{name: "plan.cursor_drain_ns_per_node", unit: "ns", better: "lower"},
	{name: "core.descendant.ns_per_touched", unit: "ns/node", better: "lower"},
	{name: "core.ancestor.ns_per_touched", unit: "ns/node", better: "lower"},
	{name: "core.following.ns_per_touched", unit: "ns/node", better: "lower"},
	{name: "core.preceding.ns_per_touched", unit: "ns/node", better: "lower"},
	{name: "core.nodelist.ns_per_touched", unit: "ns/node", better: "lower"},
	{name: "core.cursor.ns_per_touched", unit: "ns/node", better: "lower"},
	{name: "core.cursor.first_batch_us", unit: "us", better: "lower"},
	{name: "core.scanned_per_result", unit: "ratio", better: "lower"},
	{name: "core.skipped_frac", unit: "ratio", better: "higher"},
	{name: "core.copied_frac", unit: "ratio", better: "higher"},
	{name: "core.work_bound_ratio", unit: "ratio", better: "lower"},
	{name: "index.tag_lookup_ns", unit: "ns", better: "lower"},
	{name: "index.build_s", unit: "s", better: "lower"},
	{name: "index.bytes_per_node", unit: "B", better: "lower"},
	{name: "vindex.range_probe_us", unit: "us", better: "lower"},
	{name: "vindex.contains_probe_us", unit: "us", better: "lower"},
	{name: "vindex.build_s", unit: "s", better: "lower"},
	{name: "vindex.bytes_per_node", unit: "B", better: "lower"},
	{name: "doc.shred_s", unit: "s", better: "lower"},
	{name: "doc.shred_mb_s", unit: "MB/s", better: "higher"},
	{name: "doc.write_binary_s", unit: "s", better: "lower"},
	{name: "doc.read_binary_s", unit: "s", better: "lower"},
	{name: "doc.column_bytes_per_node", unit: "B", better: "lower"},
	{name: "catalog.first_open_s", unit: "s", better: "lower"},
	{name: "catalog.open_hit_ns", unit: "ns", better: "lower"},
	{name: "server.hit_small_us", unit: "us", better: "lower"},
	{name: "server.hit_large_us", unit: "us", better: "lower"},
	{name: "server.encode_ns_per_node", unit: "ns", better: "lower"},
	{name: "server.alloc_bytes_per_hit", unit: "B", better: "lower"},
	{name: "server.plan_hit_us", unit: "us", better: "lower"},
	{name: "server.miss_us", unit: "us", better: "lower"},
	{name: "server.miss_self_us", unit: "us", better: "lower"},
	{name: "server.stream_first_chunk_us", unit: "us", better: "lower"},
	{name: "server.result_cache_hit_frac", unit: "ratio", better: "higher"},
	{name: "server.plan_cache_hit_frac", unit: "ratio", better: "higher"},
	{name: "server.cache_entries", unit: "count", better: "higher"},
	{name: "server.shed_frac", unit: "ratio", better: "lower"},
	{name: "server.timeout_frac", unit: "ratio", better: "lower"},
	{name: "server.error_frac", unit: "ratio", better: "lower"},
	{name: "share.coalesced_frac", unit: "ratio", better: "higher"},
	{name: "share.flights_per_miss", unit: "ratio", better: "lower"},
	{name: "engine.adhoc_us", unit: "us", better: "lower"},
	{name: "engine.facade_self_us", unit: "us", better: "lower"},
	{name: "host.colscan_ns_per_node", unit: "ns", better: "lower"},
	{name: "loadgen.latency_p99_us", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}
