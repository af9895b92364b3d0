package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"locshort/internal/cli"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/wire"
)

// Replay bounds: enough requests for stable medians, few enough that the
// trace file stays a few MB and the traced run well inside its limit.
const (
	replayMaxRequests = 4000
	replayBudget      = 4 * time.Second
)

// layerMetrics fills the per-layer metrics measured in-process: the
// replay of the request stream, per-call costs of each layer's public
// functions, the Builder stages per family, and the store paths.
//
// The stream is replayed on two identically set-up replayers, one with
// tracing on and one with it off, request by request and alternating
// which goes first. The traced one gives the spans and layer self times,
// and afterwards the per-call measurements; the pair gives the tracing
// overhead on identical work; the untraced one gives the service timings.
func (e *runEnv) layerMetrics(m map[string]float64, w *workload, cat []*catalogGraph, seed int64,
	ds []*daemon, completed int) error {
	dir := filepath.Join(e.out, "work", fmt.Sprintf("layers-%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	plain, err := newReplayer(filepath.Join(dir, "plain"), w, cat, seed, ds)
	if err != nil {
		return err
	}
	defer plain.close()
	traced, err := newReplayer(filepath.Join(dir, "traced"), w, cat, seed, ds)
	if err != nil {
		return err
	}
	defer traced.close()
	traced.tr.on.Store(true)

	n := min(replayMaxRequests, completed) / w.conns
	seq := sequence(w, seed, max(n, 1))
	var onNs, offNs []float64
	deadline := time.Now().Add(replayBudget)
	for i, r := range seq {
		if time.Now().After(deadline) {
			break
		}
		order := []*replayer{plain, traced}
		if i%2 == 1 {
			order[0], order[1] = traced, plain
		}
		for _, rp := range order {
			d, err := rp.serve(r, int32(i))
			if err != nil {
				return fmt.Errorf("replay request %d: %w", i, err)
			}
			if rp == traced {
				onNs = append(onNs, float64(d.Nanoseconds()))
			} else {
				offNs = append(offNs, float64(d.Nanoseconds()))
			}
		}
	}
	traced.tr.on.Store(false)
	// Paired: the median over requests of traced time over untraced time.
	// The stream mixes requests whose costs differ by 10x and more, so
	// the two sides' own medians can each land on either side of a gap.
	var ratios []float64
	for i := range min(len(onNs), len(offNs)) {
		ratios = append(ratios, onNs[i]/offNs[i])
	}
	m["obs.trace_overhead_pct"] = (median(ratios) - 1) * 100

	perLayer := map[string][]float64{}
	var sums []float64
	for _, layers := range traced.tr.selfTimes() {
		var sum time.Duration
		for _, l := range traceLayers {
			perLayer[l] = append(perLayer[l], us(layers[l]))
			sum += layers[l]
		}
		sums = append(sums, us(sum))
	}
	for _, l := range traceLayers {
		m["trace."+l+"_self_us"] = mean(perLayer[l])
	}
	m["locshortd.unattributed_us"] = m["locshortd.route_p50_us"] - median(sums)
	if err := traced.tr.write(filepath.Join(e.out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed)),
		map[string]any{"workload": w.name, "seed": seed, "host": e.host}); err != nil {
		return err
	}

	// The per-call measurements run on the traced replayer (tracing is off
	// by now), so the untraced one's timings cover the stream alone.
	if err := traced.microMetrics(m, seq); err != nil {
		return err
	}
	if err := plain.close(); err != nil {
		return err
	}
	sc, err := scrapeRegistry(plain.reg)
	if err != nil {
		return err
	}
	jobs, jobMean := histMean(sc, "locshort_engine_job_seconds")
	m["service.queue_wait_us"] = ratio(plain.jobTime.Seconds()-jobs*jobMean, jobs) * 1e6
	m["service.build_p50_ms"] = median(plain.builds) / 1e3
	m["service.load_p50_us"] = median(plain.st.loads)
	m["service.persist_p50_us"] = median(plain.st.persists)
	m["service.measure_p50_us"] = median(plain.measures)

	if err := storeMetrics(m, filepath.Join(dir, "store"), cat, w, layerKeys(w, seq, seed)); err != nil {
		return err
	}
	return familyMetrics(m, seed)
}

// layerKeys is the key set the store layer is measured on: the whole key
// space when it is small, else the stream's first distinct keys.
func layerKeys(w *workload, seq []request, seed int64) []keyID {
	if w.keySpace*int64(len(w.catalog)) <= 256 {
		return allKeys(w, seed)
	}
	seen := map[keyID]bool{}
	var ids []keyID
	for _, r := range seq {
		if !seen[r.key()] && len(ids) < 64 {
			seen[r.key()] = true
			ids = append(ids, r.key())
		}
	}
	return ids
}

// microMetrics times single calls of the wire, cli and service functions
// the handler makes, over the replayed stream's own inputs.
func (rp *replayer) microMetrics(m map[string]float64, seq []request) error {
	w, cat := rp.w, rp.cat
	var bodies [][]byte
	var keys []*resolved
	seen := map[keyID]bool{}
	for _, r := range seq {
		if len(bodies) < 64 {
			bodies = append(bodies, binaryBody(cat, w, r))
		}
		if !seen[r.key()] && len(keys) < 16 {
			seen[r.key()] = true
			k, err := resolve(cat, w, r.key())
			if err != nil {
				return err
			}
			keys = append(keys, k)
		}
	}
	var ferr error
	m["wire.decode_request_ns"], m["wire.decode_request_allocs"] = perCall(func(i int) {
		if _, err := wire.DecodeShortcutRequest(bodies[i%len(bodies)]); err != nil {
			ferr = err
		}
	})
	m["cli.parse_options_ns"], _ = perCall(func(i int) {
		if _, err := cli.ParseBuildOptions(w.options[i%len(w.options)]); err != nil {
			ferr = err
		}
	})
	m["cli.parse_partition_ns"], m["cli.parse_partition_allocs"] = perCall(func(i int) {
		k := keys[i%len(keys)]
		if _, err := cli.ParsePartition(k.cg.g, w.parts, k.id.seed); err != nil {
			ferr = err
		}
	})
	m["service.shortcut_key_ns"], m["service.shortcut_key_allocs"] = perCall(func(i int) {
		k := keys[i%len(keys)]
		service.ShortcutKey(k.cg.fp, k.parts, k.opts)
	})

	// Engine.Build on a resident key: the warm-hit path below the handler.
	k := keys[0]
	g, _ := rp.eng.Graph(k.cg.fp)
	parts, err := cli.ParsePartition(g, w.parts, k.id.seed)
	if err != nil {
		return err
	}
	breq := service.BuildRequest{Graph: k.cg.fp, Options: k.opts, Parts: parts}
	if _, _, err := rp.eng.Build(context.Background(), breq); err != nil {
		return err
	}
	m["service.engine_hit_ns"], m["service.engine_hit_allocs"] = perCall(func(int) {
		if _, hit, err := rp.eng.Build(context.Background(), breq); err != nil || !hit {
			ferr = fmt.Errorf("engine hit: hit=%v err=%v", hit, err)
		}
	})
	return ferr
}

// familyMetrics runs Builder.Build with stage collection and Measure on
// cold-build's request stream for this seed, through one Builder as one
// daemon worker would, and reports each family's stage costs.
func familyMetrics(m map[string]float64, seed int64) error {
	cold, err := workloadByName("cold-build")
	if err != nil {
		return err
	}
	cat, err := loadCatalog(cold.catalog)
	if err != nil {
		return err
	}
	type famStats struct {
		build, allocs, measure []float64
		stages                 map[string][]float64
		builds, launched       float64
	}
	fams := make([]*famStats, len(cat))
	for i := range fams {
		fams[i] = &famStats{stages: map[string][]float64{}}
	}
	par := runtime.GOMAXPROCS(0)
	b := shortcut.NewBuilder()
	var m0, m1 runtime.MemStats
	for _, r := range sequence(cold, seed, 80/cold.conns) {
		k, err := resolve(cat, cold, r.key())
		if err != nil {
			return err
		}
		opts := k.opts
		opts.CollectStages = true
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := b.Build(k.cg.g, k.parts, opts)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		t1 := time.Now()
		shortcut.Measure(res.Shortcut)
		md := time.Since(t1)

		f := fams[r.graph]
		f.build = append(f.build, ms(d))
		f.allocs = append(f.allocs, float64(m1.Mallocs-m0.Mallocs))
		f.measure = append(f.measure, ms(md))
		sum := map[string]float64{}
		for _, st := range res.Stages {
			name := st.Name
			if strings.HasPrefix(name, "level(") {
				name = "level"
			}
			sum[name] += ms(st.Dur)
		}
		for _, name := range []string{"choose_root", "bfs_tree", "level", "sweep", "assemble"} {
			f.stages[name] = append(f.stages[name], sum[name])
		}
		f.builds++
		f.launched += float64(levelsLaunched(len(res.LevelsTried), par, k.cg.g.NumNodes()))
	}
	for i, fam := range coldFamilies {
		f := fams[i]
		if f.builds == 0 {
			return fmt.Errorf("family %s: no build in the sampled stream", fam)
		}
		p := "shortcut." + fam + "."
		m[p+"build_ms"] = median(f.build)
		m[p+"build_allocs"] = median(f.allocs)
		for _, name := range []string{"choose_root", "bfs_tree", "level", "sweep", "assemble"} {
			m[p+name+"_ms"] = median(f.stages[name])
		}
		m[p+"levels_tried"] = f.launched / f.builds
		m[p+"level_useful_ratio"] = f.builds / f.launched
		m[p+"measure_ms"] = median(f.measure)
	}
	return nil
}

// levelsLaunched counts the doubling-search levels a build ran: the
// speculative search races waves of par levels (delta' = 1, 2, 4, ... up
// to the node count) and LevelsTried stops at the accepted one, while the
// rest of its wave ran anyway.
func levelsLaunched(tried, par, nodes int) int {
	all := 0
	for d := 1; d <= nodes; d *= 2 {
		all++
	}
	waves := (tried + par - 1) / par
	return min(waves*par, all)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
