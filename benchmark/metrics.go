package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics with the same units and directions (a test keeps the two in
// step); bounds live only there.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics of an untraced run, the same nine for every
// workload.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", true},
	{"lat_p50_ms", "ms", false},
	{"lat_p95_ms", "ms", false},
	{"cpu_ms_per_op", "ms", false},
	{"alloc_kb_per_op", "KiB", false},
	{"kv_cmds_per_op", "cmd", false},
	{"peak_rss_mb", "MiB", false},
	{"ok_frac", "ratio", true},
	{"setup_s", "s", false},
}

// perLayer are the metrics of a traced run; the prefix is the module.
// Every workload reports all of them, 0 where the workload never enters
// the layer.
var perLayer = []metricDef{
	{"serial.encode_us", "us", false},
	{"serial.decode_us", "us", false},
	{"serial.expansion", "ratio", false},

	{"proxy.new_us", "us", false},
	{"proxy.marshal_us", "us", false},
	{"proxy.unmarshal_us", "us", false},
	{"proxy.resolve_miss_us", "us", false},
	{"proxy.resolve_hit_us", "us", false},
	{"proxy.descriptor_bytes", "B", false},

	{"store.put_self_us", "us", false},
	{"store.get_self_us", "us", false},
	{"store.evict_us", "us", false},
	{"store.cache_hit_frac", "ratio", true},
	{"store.bytes_put_per_op", "B", false},

	{"connector.put_us", "us", false},
	{"connector.get_us", "us", false},
	{"connector.evict_us", "us", false},
	{"connector.calls_per_op", "count", false},
	{"connector.self_us_per_op", "us", false},

	{"kvclient.round_trips_per_op", "count", false},
	{"kvclient.cmds_per_round_trip", "cmd", true},
	{"kvclient.busy_us_per_op", "us", false},
	{"kvclient.blocked_us_per_op", "us", false},
	{"kvclient.call_us_per_op", "us", false},
	{"kvclient.dials", "count", false},

	{"kvserver.exec_us_per_op", "us", false},
	{"kvserver.bytes_in_per_op", "B", false},
	{"kvserver.bytes_out_per_op", "B", false},
	{"kvserver.wait_cmds_per_op", "cmd", false},
	{"kvserver.cas_cmds_per_op", "cmd", false},
	{"kvserver.keys_end", "count", false},

	{"pstream.send_us", "us", false},
	{"pstream.publish_us", "us", false},
	{"pstream.deliver_lag_us", "us", false},
	{"pstream.value_us", "us", false},
	{"pstream.ack_us", "us", false},
	{"pstream.kv_cmds_per_publish", "cmd", false},
	{"pstream.kv_cmds_per_deliver", "cmd", false},
	{"pstream.cas_win_frac", "ratio", true},
	{"pstream.event_bytes", "B", false},
	{"pstream.self_us_per_op", "us", false},

	{"faas.submit_us", "us", false},
	{"faas.queue_us", "us", false},
	{"faas.return_us", "us", false},
	{"faas.store_puts_per_task", "count", false},
	{"faas.store_gets_per_task", "count", false},

	{"runtime.mallocs_per_op", "count", false},
	{"runtime.gc_pause_ms_per_s", "ms/s", false},
	{"runtime.live_heap_mb", "MiB", false},
	{"runtime.goroutines_end", "count", false},

	{"trace.coverage_frac", "ratio", true},
	{"trace.overhead_frac", "ratio", false},
	{"trace.kv_cmds_delta_frac", "ratio", false},
}
