package main

// metric is one reported figure; BENCHMARK.json lists the same names and
// units (TestBenchmarkJSONMatches holds the two together).
type metric struct {
	name string
	unit string
}

// endToEnd are the untraced run's metrics, what a caller of locshortd
// sees. Failures are not a metric here: they are the result line's
// failed count over attempted. The p99s and the request rate move with
// the host's other tenants far more than any bound allows, so they are
// reported by the traced run, without a bound (the e2e.* layer metrics).
var endToEnd = []metric{
	{"bin_p50_ms", "ms"},
	{"json_p50_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// shortcutStageMetrics are measured per family of coldCatalog.
var shortcutStageMetrics = []metric{
	{"build_ms", "ms"},
	{"build_allocs", "count"},
	{"choose_root_ms", "ms"},
	{"bfs_tree_ms", "ms"},
	{"level_ms", "ms"},
	{"sweep_ms", "ms"},
	{"assemble_ms", "ms"},
	{"levels_tried", "count"},
	{"level_useful_ratio", "ratio"},
	{"measure_ms", "ms"},
}

// traceLayers are the layers the traced replay attributes self time to.
var traceLayers = []string{"wire", "cli", "service", "store", "cluster"}

// perLayer are the traced run's metrics.
var perLayer = func() []metric {
	ms := []metric{
		{"e2e.bin_p99_ms", "ms"},
		{"e2e.json_p99_ms", "ms"},
		{"e2e.rps", "1/s"},
		{"locshortd.route_p50_us", "us"},
		{"locshortd.transport_p50_us", "us"},
		{"locshortd.unattributed_us", "us"},
		{"server.allocs_per_req", "count"},
		{"wire.decode_request_ns", "ns"},
		{"wire.decode_request_allocs", "count"},
		{"cli.parse_options_ns", "ns"},
		{"cli.parse_partition_ns", "ns"},
		{"cli.parse_partition_allocs", "count"},
		{"service.shortcut_key_ns", "ns"},
		{"service.shortcut_key_allocs", "count"},
		{"service.engine_hit_ns", "ns"},
		{"service.engine_hit_allocs", "count"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.store_hit_ratio", "ratio"},
		{"service.evictions_per_req", "count"},
		{"service.queue_wait_us", "us"},
		{"service.build_p50_ms", "ms"},
		{"service.load_p50_us", "us"},
		{"service.persist_p50_us", "us"},
		{"service.measure_p50_us", "us"},
	}
	for _, fam := range coldFamilies {
		for _, m := range shortcutStageMetrics {
			ms = append(ms, metric{"shortcut." + fam + "." + m.name, m.unit})
		}
	}
	ms = append(ms,
		metric{"store.get_shortcut_mmap_ns", "ns"},
		metric{"store.get_shortcut_mmap_allocs", "count"},
		metric{"store.get_shortcut_pread_ns", "ns"},
		metric{"store.payload_mmap_ns", "ns"},
		metric{"store.payload_mmap_allocs", "count"},
		metric{"store.encode_payload_ns", "ns"},
		metric{"store.put_shortcut_ns", "ns"},
		metric{"store.append_mean_us", "us"},
		metric{"store.fsync_mean_us", "us"},
		metric{"store.bytes_per_record", "B"},
		metric{"store.sealed_record_share", "ratio"},
		metric{"cluster.forward_share", "ratio"},
		metric{"cluster.forward_p50_us", "us"},
		metric{"cluster.peer_hit_ratio", "ratio"},
	)
	for _, l := range traceLayers {
		ms = append(ms, metric{"trace." + l + "_self_us", "us"})
	}
	return append(ms, metric{"obs.trace_overhead_pct", "%"})
}()

func metricSet(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
