package main

import "time"

// perLayer lists every per-layer metric the traced run prints, with its
// unit. A workload that bypasses a layer reports 0 for it: the prediction
// for a bypassed layer is that it does no work.
var perLayer = []struct{ name, unit string }{
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"engine.exec_us", "us"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evicted_per_kreq", "count"},
	{"rescache.invalidated_per_write", "count"},
	{"dynamic.insert_us", "us"},
	{"dynamic.delete_us", "us"},
	{"dynamic.write_p50_ms", "ms"},
	{"dynamic.write_p99_ms", "ms"},
	{"core.expanded_nodes_per_query", "count"},
	{"core.pops_per_query", "count"},
	{"core.tracked_per_query", "count"},
	{"core.merge_us", "us"},
	{"index.pruned_nodes_per_query", "count"},
	{"storage.logical_reads_per_query", "pages"},
	{"storage.phys_reads_per_query", "pages"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.device_read_us", "us"},
	{"storage.device_share", "ratio"},
	{"cluster.legs_per_query", "count"},
	{"cluster.leg_us", "us"},
	{"cluster.gateway_self_us", "us"},
	{"timedep.intervals_per_query", "count"},
	{"timedep.compile_s", "s"},
	{"client.p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// layerMetrics renders vals as the per-layer result, 0 where a layer was
// bypassed.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// workLayers derives the core and index work metrics from answer stats.
func workLayers(vals map[string]float64, w workSums) {
	vals["core.expanded_nodes_per_query"] = perQuery(w.stats.NodeExpansions, w.answers)
	vals["core.pops_per_query"] = perQuery(w.stats.Pops, w.answers)
	vals["core.tracked_per_query"] = perQuery(w.stats.Tracked, w.answers)
	vals["index.pruned_nodes_per_query"] = perQuery(w.stats.PrunedNodes, w.answers)
}

// runLayers adds what every traced run reports: the untraced half's p99
// latency, the tracing overhead, and the span count.
func runLayers(vals map[string]float64, plain, traced loopResult, tr *tracer) {
	vals["client.p99_ms"] = ms(quantile(sortDurations(plain.lat), 0.99))
	vals["trace.overhead_pct"] = overhead(plain, traced)
	vals["trace.spans"] = float64(len(tr.spans))
}

// transportUS is the mean client round trip minus the time inside the
// first server span each request reached (named server). The server span's
// parent is the client's http.roundtrip span, whose parent is the
// client.request span.
func transportUS(tr *tracer, server string) float64 {
	requests := tr.byName("client.request")
	if len(requests) == 0 {
		return 0
	}
	var total time.Duration
	for _, ci := range requests {
		total += tr.spans[ci].dur()
	}
	for _, si := range tr.byName(server) {
		if rt := tr.spans[si].Parent; rt >= 0 && tr.spans[rt].Parent >= 0 {
			total -= tr.spans[si].dur()
		}
	}
	return us(total) / float64(len(requests))
}
