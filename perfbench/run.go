package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"locshort/internal/obs"
)

// An untraced run sets its daemons up several times and reports the
// median set-up time: at least minSetups times, and more, up to
// maxSetups, until set-up has taken setupBudget in all, so that short
// set-ups, which a single descheduling can double, get a steady median.
// The window measures the last set-up.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

// runOnce runs one workload once: set-up on fresh directories, the
// measured window, the correctness check, and for a traced run the
// in-process replay and layer measurements.
func (e *runEnv) runOnce(w *workload, seed int64, traced bool) (o *outcome, err error) {
	cat, err := loadCatalog(w.catalog)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(e.out, "work", fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var setups []time.Duration
	var total time.Duration
	var ds []*daemon
	for i := 0; ; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		d, dur, err := e.setup(w, cat, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, dur)
		total += dur
		if traced || i+1 == maxSetups || (i+1 >= minSetups && total >= setupBudget) {
			ds = d
			break
		}
		if err := stopDaemons(d); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer func() {
		if serr := stopDaemons(ds); serr != nil && err == nil {
			err = serr
		}
	}()

	var before []*obs.Scrape
	if traced {
		if before, err = scrapeAll(ds); err != nil {
			return nil, err
		}
	}
	cpu0, err := cpuAll(ds)
	if err != nil {
		return nil, err
	}
	lr := runLoad(ds, cat, w, seed, e.seconds)
	cpu1, err := cpuAll(ds)
	if err != nil {
		return nil, err
	}
	var hwm int64
	for _, d := range ds {
		h, err := procHWM(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		hwm += h
	}
	var after []*obs.Scrape
	if traced {
		if after, err = scrapeAll(ds); err != nil {
			return nil, err
		}
	}
	if lr.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d requests failed; first: %v\n",
			w.name, lr.failures, lr.attempts, lr.firstErr)
	}

	ck := newChecker(cat, w)
	wrong, cerr := ck.checkAll(lr.samples)
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d sampled replies wrong; first: %v\n",
			w.name, wrong, len(lr.samples), cerr)
	}
	completed := len(lr.jsonMs) + len(lr.binMs)
	o = &outcome{
		workload: w.name, seed: seed, trace: traced,
		attempted: lr.attempts, failed: lr.failures + wrong,
		metrics: map[string]float64{},
		counts: map[string]int{"json": len(lr.jsonMs), "bin": len(lr.binMs),
			"checked": len(lr.samples), "setups": len(setups)},
	}
	if completed == 0 {
		return nil, fmt.Errorf("%s: no request completed: %v", w.name, lr.firstErr)
	}
	m := o.metrics
	clientP50 := percentile(append(append([]float64(nil), lr.jsonMs...), lr.binMs...), 0.5)
	m["bin_p50_ms"] = windowedMedian(lr.binMs, lr.binWin)
	m["json_p50_ms"] = windowedMedian(lr.jsonMs, lr.jsonWin)
	m["cpu_us_per_req"] = float64((cpu1 - cpu0).Microseconds()) / float64(completed)
	m["rss_mb"] = float64(hwm) / 1e6
	m["setup_s"] = durMedian(setups).Seconds()
	if !traced {
		return o, nil
	}

	o.metrics = map[string]float64{
		"e2e.bin_p99_ms":  percentile(lr.binMs, 0.99),
		"e2e.json_p99_ms": percentile(lr.jsonMs, 0.99),
		"e2e.rps":         float64(completed) / lr.wall.Seconds(),
	}
	daemonLayerMetrics(o.metrics, before, after, completed, clientP50)
	if err := e.layerMetrics(o.metrics, w, cat, seed, ds, completed); err != nil {
		return nil, err
	}
	return o, nil
}

// setup brings a workload's daemons to the state its window measures and
// returns how long that took, from the first step to ready-to-measure.
func (e *runEnv) setup(w *workload, cat []*catalogGraph, seed int64, dir string) ([]*daemon, time.Duration, error) {
	start := time.Now()
	if w.prefill == fillStore {
		// The single node's store directory (see startDaemons).
		if _, err := prefillStore(filepath.Join(dir, "node0", "data"), cat, w, allKeys(w, seed)); err != nil {
			return nil, 0, err
		}
	}
	ds, err := startDaemons(e.daemon, dir, w)
	if err != nil {
		return nil, 0, err
	}
	if err := ingest(ds, cat); err != nil {
		stopDaemons(ds)
		return nil, 0, err
	}
	if w.prefill == fillRequests {
		if err := prefillDaemons(ds, cat, w, seed); err != nil {
			stopDaemons(ds)
			return nil, 0, err
		}
	}
	return ds, time.Since(start), nil
}

func cpuAll(ds []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, d := range ds {
		c, err := d.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func scrapeAll(ds []*daemon) ([]*obs.Scrape, error) {
	out := make([]*obs.Scrape, len(ds))
	for i, d := range ds {
		sc, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}
