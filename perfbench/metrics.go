package main

// metricSpec names one printed metric and its unit. The two lists are
// the benchmark's contract with BENCHMARK.json (the self-test checks
// they agree); every workload prints every metric of the selected list.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees; an op is one request
// (serve-warm), one job (jobs-cold) or one scheduled corpus
// (cluster-stream).
var endToEnd = []metricSpec{
	{"setup_s", "s"},              // median of the run's set-ups
	{"p50_ms", "ms"},              // op latency at the nominal rate, from due time
	{"p99_ms", "ms"},              //
	{"max_rps", "ops/s"},          // highest ladder rate meeting the latency limit
	{"nodes_per_s", "nodes/s"},    // task nodes scheduled per wall-clock second
	{"cpu_ms_per_op", "ms"},       // process CPU (user+sys) per op
	{"peak_rss_mb", "MB"},         // VmHWM
	{"makespan_over_lb", "ratio"}, // geomean over instances (cluster: corpus makespan over its bound)
}

// perLayer comes from the traced run.
var perLayer = []metricSpec{
	{"error_ratio", "ratio"},
	{"service.handler_ms", "ms"},
	{"service.self_share", "ratio"},
	{"service.decode_ns_per_byte", "ns/B"},
	{"service.encode_us", "us"},
	{"service.submit_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.inflight_hw", "count"},
	{"tree.parse_ns_per_node", "ns"},
	{"tree.validate_ns_per_node", "ns"},
	{"harness.cache_hit_ratio", "ratio"},
	{"harness.prepare_ns_per_node", "ns"},
	{"harness.evictions", "count"},
	{"harness.cached_nodes", "count"},
	{"order.mempo_ns_per_node", "ns"},
	{"workload.gen_ns_per_node", "ns"},
	{"core.ns_per_event", "ns"},
	{"core.replay_ns_per_event", "ns"},
	{"core.select_calls_per_event", "ratio"},
	{"sim.self_ns_per_event", "ns"},
	{"bounds.ns_per_node", "ns"},
	{"multitree.ns_per_event", "ns"},
	{"multitree.admit_ns_per_call", "ns"},
	{"multitree.admit_calls_per_job", "ratio"},
	{"multitree.admit_yield", "ratio"},
	{"multitree.self_ns_per_event", "ns"},
	{"multitree.max_queue", "count"},
	{"multitree.avg_queue", "count"},
	{"multitree.mean_bsld", "ratio"},
	{"obs.overhead_ratio", "ratio"},
	{"obs.dropped_events", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.backlog_max", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"service.self_ms_per_op", "ms"},
	{"tree.self_ms_per_op", "ms"},
	{"harness.self_ms_per_op", "ms"},
	{"order.self_ms_per_op", "ms"},
	{"workload.self_ms_per_op", "ms"},
	{"core.self_ms_per_op", "ms"},
	{"sim.self_ms_per_op", "ms"},
	{"bounds.self_ms_per_op", "ms"},
	{"multitree.self_ms_per_op", "ms"},
	{"obs.self_ms_per_op", "ms"},
}

// layers are the program's packages the trace attributes self time to;
// a span's layer is the prefix of its name up to the first dot.
var layers = []string{"service", "tree", "harness", "order", "workload", "core", "sim", "bounds", "multitree", "obs"}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
