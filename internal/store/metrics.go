package store

import (
	"locshort/internal/obs"
)

// storeMetrics holds the store's observed instruments. Gauges (segments,
// bytes, live records) are func-backed over OpenStats and cost nothing off
// the scrape path; append/fsync latency is observed inline under writeMu,
// which already serializes writers.
type storeMetrics struct {
	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
	rotations     *obs.Counter
	appends       map[byte]*obs.Counter // by record kind; read-only after init
}

func newStoreMetrics(r *obs.Registry, s *Store) *storeMetrics {
	m := &storeMetrics{
		appendSeconds: r.Histogram("locshort_store_append_seconds",
			"Full record append latency: frame, write, fsync, rotation.", nil, nil),
		fsyncSeconds: r.Histogram("locshort_store_fsync_seconds",
			"fsync portion of record appends (zero observations under NoSync).", nil, nil),
		rotations: r.Counter("locshort_store_segment_rotations_total",
			"Active segments retired at the size bound.", nil),
		appends: make(map[byte]*obs.Counter, 5),
	}
	for kind, name := range map[byte]string{
		kindGraph:     "graph",
		kindPartition: "partition",
		kindShortcut:  "shortcut",
		kindJob:       "job",
		kindTombstone: "tombstone",
	} {
		m.appends[kind] = r.Counter("locshort_store_appends_total",
			"Records appended, by kind.", obs.Labels{"kind": name})
	}
	stats := func(load func(OpenStats) float64) func() float64 {
		return func() float64 { return load(s.OpenStats()) }
	}
	r.GaugeFunc("locshort_store_segments", "Segment files on disk.", nil,
		stats(func(o OpenStats) float64 { return float64(o.Segments) }))
	r.GaugeFunc("locshort_store_bytes", "Total size of all segment files.", nil,
		stats(func(o OpenStats) float64 { return float64(o.Bytes) }))
	r.GaugeFunc("locshort_store_mapped_segments",
		"Sealed segments served zero-copy from a read-only memory mapping.", nil,
		stats(func(o OpenStats) float64 { return float64(o.MappedSegments) }))
	r.GaugeFunc("locshort_store_records", "Live records, by kind.", obs.Labels{"kind": "graph"},
		stats(func(o OpenStats) float64 { return float64(o.Graphs) }))
	r.GaugeFunc("locshort_store_records", "Live records, by kind.", obs.Labels{"kind": "partition"},
		stats(func(o OpenStats) float64 { return float64(o.Partitions) }))
	r.GaugeFunc("locshort_store_records", "Live records, by kind.", obs.Labels{"kind": "shortcut"},
		stats(func(o OpenStats) float64 { return float64(o.Shortcuts) }))
	r.GaugeFunc("locshort_store_records", "Live records, by kind.", obs.Labels{"kind": "job"},
		stats(func(o OpenStats) float64 { return float64(o.Jobs) }))
	return m
}
