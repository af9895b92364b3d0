package main

import (
	"bytes"
	"runtime"
	"time"

	"locshort/internal/obs"
)

// perCall times fn(0), fn(1), ... in five batches of about 20ms and
// returns the median nanoseconds and heap allocations per call.
func perCall(fn func(i int)) (ns, allocs float64) {
	// Calibrate the batch size from a short warm-up.
	n, t0 := 0, time.Now()
	for time.Since(t0) < 5*time.Millisecond {
		fn(n)
		n++
	}
	per := time.Since(t0) / time.Duration(n)
	iters := int(20 * time.Millisecond / max(per, 1))
	iters = max(iters, 1)
	var nss, als []float64
	var m0, m1 runtime.MemStats
	i := 0
	for b := 0; b < 5; b++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for k := 0; k < iters; k++ {
			fn(i)
			i++
		}
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(iters))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return median(nss), median(als)
}

// scrapeRegistry reads an in-process registry through the same parser the
// daemons' /metrics go through.
func scrapeRegistry(reg *obs.Registry) (*obs.Scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParsePrometheus(&buf)
}

// histMean returns the histogram's count and mean in seconds.
func histMean(sc *obs.Scrape, name string) (count, meanS float64) {
	h, ok := sc.Histogram(name, nil)
	if !ok || h.Count() == 0 {
		return 0, 0
	}
	return float64(h.Count()), float64(h.SumNs) / 1e9 / float64(h.Count())
}
