package main

import (
	"fmt"
	"time"

	"locshort/internal/obs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// prefillSegmentBytes is the segment size stores are prefilled with. The
// daemon's default (64 MiB) would hold a benchmark-sized store in its one
// active segment, so every read would take the pread path; at this size
// most records land in sealed segments, which the daemon maps.
const prefillSegmentBytes = 32 << 10

// prefilled is what prefillStore wrote.
type prefilled struct {
	keys      []*resolved
	results   []*shortcut.Result
	buildTime []time.Duration
	// sealed holds the keys whose records sit in sealed segments.
	sealed      []*resolved
	sealedShare float64
	bytesPerRec float64
}

// prefillStore builds every key in-process and writes the graphs and the
// shortcut records through the store package, as a daemon's persists
// would have.
func prefillStore(dir string, cat []*catalogGraph, w *workload, ids []keyID) (*prefilled, error) {
	st, err := store.Open(dir, store.Options{SegmentBytes: prefillSegmentBytes, NoSync: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for _, cg := range cat {
		if err := st.PutGraphPayload(cg.fp, cg.payload); err != nil {
			return nil, err
		}
	}
	p := &prefilled{}
	b := shortcut.NewBuilder()
	byKey := map[service.Fingerprint]*resolved{}
	for _, id := range ids {
		r, err := resolve(cat, w, id)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := b.Build(r.cg.g, r.parts, r.opts)
		if err != nil {
			return nil, err
		}
		bt := time.Since(t0)
		if err := st.PutShortcut(r.key, r.cg.fp, r.parts, r.opts, res, bt); err != nil {
			return nil, err
		}
		p.keys = append(p.keys, r)
		p.results = append(p.results, res)
		p.buildTime = append(p.buildTime, bt)
		byKey[r.key] = r
	}
	recs := st.Records()
	last := 0
	for _, rec := range recs {
		last = max(last, rec.Segment)
	}
	var bytes, n float64
	for _, rec := range recs {
		if rec.Kind != "shortcut" {
			continue
		}
		n++
		bytes += float64(rec.Bytes)
		if rec.Segment < last {
			p.sealed = append(p.sealed, byKey[rec.Key])
		}
	}
	p.sealedShare = ratio(float64(len(p.sealed)), n)
	p.bytesPerRec = ratio(bytes, n)
	return p, nil
}

// storeMetrics times the store package's read and write paths on a store
// prefilled with the workload's keys.
func storeMetrics(m map[string]float64, dir string, cat []*catalogGraph, w *workload, ids []keyID) error {
	p, err := prefillStore(dir+"/layout", cat, w, ids)
	if err != nil {
		return err
	}
	m["store.sealed_record_share"] = p.sealedShare
	m["store.bytes_per_record"] = p.bytesPerRec
	if len(p.sealed) == 0 {
		return fmt.Errorf("store layout: no record in a sealed segment")
	}
	for _, mmap := range []bool{true, false} {
		st, err := store.Open(dir+"/layout", store.Options{NoMmap: !mmap})
		if err != nil {
			return err
		}
		var getErr error
		ns, allocs := perCall(func(i int) {
			r := p.sealed[i%len(p.sealed)]
			if _, _, ok, err := st.GetShortcut(r.key, r.cg.g, r.parts); !ok || err != nil {
				getErr = fmt.Errorf("GetShortcut %s: ok=%v err=%v", r.key, ok, err)
			}
		})
		if mmap {
			m["store.get_shortcut_mmap_ns"], m["store.get_shortcut_mmap_allocs"] = ns, allocs
			m["store.payload_mmap_ns"], m["store.payload_mmap_allocs"] = perCall(func(i int) {
				r := p.sealed[i%len(p.sealed)]
				if _, ok, err := st.ShortcutPayload(r.key); !ok || err != nil {
					getErr = fmt.Errorf("ShortcutPayload %s: ok=%v err=%v", r.key, ok, err)
				}
			})
		} else {
			m["store.get_shortcut_pread_ns"] = ns
		}
		if err := st.Close(); err != nil {
			return err
		}
		if getErr != nil {
			return getErr
		}
	}
	m["store.encode_payload_ns"], _ = perCall(func(i int) {
		j := i % len(p.keys)
		r := p.keys[j]
		store.EncodeShortcutRecordPayload(r.cg.fp, r.parts, r.opts, p.results[j], p.buildTime[j])
	})

	// Writes: every key once into a fresh store with the daemon's
	// durability (fsync per append); the store's own histograms split out
	// the append and its fsync.
	reg := obs.NewRegistry()
	st, err := store.Open(dir+"/writes", store.Options{Obs: reg})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, cg := range cat {
		if err := st.PutGraphPayload(cg.fp, cg.payload); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for j, r := range p.keys {
		if err := st.PutShortcut(r.key, r.cg.fp, r.parts, r.opts, p.results[j], p.buildTime[j]); err != nil {
			return err
		}
	}
	m["store.put_shortcut_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(p.keys))
	sc, err := scrapeRegistry(reg)
	if err != nil {
		return err
	}
	// The store's histograms have coarse buckets; their sums are exact.
	_, appendS := histMean(sc, "locshort_store_append_seconds")
	_, fsyncS := histMean(sc, "locshort_store_fsync_seconds")
	m["store.append_mean_us"] = appendS * 1e6
	m["store.fsync_mean_us"] = fsyncS * 1e6
	return nil
}
