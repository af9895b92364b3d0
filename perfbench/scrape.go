package main

import (
	"locshort/internal/obs"
)

// scrapeDelta reads counter and histogram growth between two scrapes of
// every node, summed (counters) or merged (histograms) across nodes.
type scrapeDelta struct {
	before, after []*obs.Scrape
}

func (s scrapeDelta) counter(name string, labels obs.Labels) float64 {
	sum := 0.0
	for i := range s.after {
		a, _ := s.after[i].Value(name, labels)
		b, _ := s.before[i].Value(name, labels)
		sum += a - b
	}
	return sum
}

// histogram returns the merged interval histogram; false when no node
// has the series.
func (s scrapeDelta) histogram(name string, labels obs.Labels) (obs.HistogramSnapshot, bool) {
	var out obs.HistogramSnapshot
	found := false
	for i := range s.after {
		a, ok := s.after[i].Histogram(name, labels)
		if !ok {
			continue
		}
		if b, ok := s.before[i].Histogram(name, labels); ok {
			a = a.Sub(b)
		}
		if !found {
			out, found = a, true
			continue
		}
		if err := out.Merge(a); err != nil {
			return out, false
		}
	}
	return out, found
}

func (s scrapeDelta) p50us(name string, labels obs.Labels) float64 {
	h, ok := s.histogram(name, labels)
	if !ok {
		return 0
	}
	return h.Quantile(0.5) * 1e6
}

// daemonLayerMetrics fills the per-layer metrics the daemons' /metrics
// report over the measured window; completed is the number of requests
// the client saw answered.
func daemonLayerMetrics(m map[string]float64, before, after []*obs.Scrape, completed int, clientP50ms float64) {
	d := scrapeDelta{before, after}
	reqs := float64(completed)
	route := d.p50us("locshort_http_request_seconds", obs.Labels{"route": "POST /v1/shortcuts"})
	m["locshortd.route_p50_us"] = route
	m["locshortd.transport_p50_us"] = clientP50ms*1000 - route
	m["server.allocs_per_req"] = d.counter("locshort_go_mallocs_total", nil) / reqs

	hits := d.counter("locshort_engine_cache_hits_total", nil)
	misses := d.counter("locshort_engine_cache_misses_total", nil)
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	sHit := d.counter("locshort_engine_store_reads_total", obs.Labels{"outcome": "hit"})
	sMiss := d.counter("locshort_engine_store_reads_total", obs.Labels{"outcome": "miss"})
	m["service.store_hit_ratio"] = ratio(sHit, sHit+sMiss)
	m["service.evictions_per_req"] = d.counter("locshort_engine_cache_evictions_total", nil) / reqs

	m["cluster.forward_share"] = d.counter("locshort_cluster_forwards_total", obs.Labels{"outcome": "ok"}) / reqs
	m["cluster.forward_p50_us"] = d.p50us("locshort_cluster_forward_seconds", nil)
	pHit := d.counter("locshort_engine_peer_reads_total", obs.Labels{"outcome": "hit"})
	pAll := pHit + d.counter("locshort_engine_peer_reads_total", obs.Labels{"outcome": "miss"}) +
		d.counter("locshort_engine_peer_reads_total", obs.Labels{"outcome": "error"})
	m["cluster.peer_hit_ratio"] = ratio(pHit, pAll)
}
