package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"locshort/internal/cli"
	"locshort/internal/cluster"
	"locshort/internal/obs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// replayer serves requests in-process by calling the layers' public
// functions in locshortd's handler order, with an engine and store set
// up like the daemon's. In a cluster workload the replayer plays the node
// each request was sent to: ring lookups go through internal/cluster and
// requests another node owns are forwarded to that real daemon.
type replayer struct {
	w   *workload
	cat []*catalogGraph
	eng *service.Engine
	st  *tracedStore
	reg *obs.Registry
	tr  *tracer
	cls []*cluster.Cluster // per node, cluster workloads only
	// parts mirrors the handler's partition memo.
	parts map[string]*partition.Partition
	// jobTime is the time Engine.Build and MeasureCached took, as seen by
	// the caller, on calls that ran a worker-pool job.
	jobTime time.Duration
	// builds and measures are construction times of built entries and
	// first measurements, in microseconds.
	builds, measures []float64
	closed           bool
}

func newReplayer(dir string, w *workload, cat []*catalogGraph, seed int64, ds []*daemon) (*replayer, error) {
	if w.prefill == fillStore {
		if _, err := prefillStore(dir, cat, w, allKeys(w, seed)); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	reg := obs.NewRegistry()
	raw, err := store.Open(dir, store.Options{Obs: reg})
	if err != nil {
		return nil, err
	}
	st := &tracedStore{Store: raw, tr: tr}
	eng := service.New(service.Config{CacheCapacity: w.cache, Store: st, Obs: reg})
	rp := &replayer{w: w, cat: cat, eng: eng, st: st, reg: reg, tr: tr,
		parts: map[string]*partition.Partition{}}
	if _, err := eng.WarmStart(); err != nil {
		rp.close()
		return nil, err
	}
	for _, cg := range cat {
		eng.AddGraphDecoded(cg.fp, cg.g, cg.payload)
	}
	if w.nodes > 1 {
		nodes := make([]string, len(ds))
		for i, d := range ds {
			nodes[i] = d.addr
		}
		for _, self := range nodes {
			cl, err := cluster.New(cluster.Config{Self: self, Nodes: nodes, Store: raw})
			if err != nil {
				rp.close()
				return nil, err
			}
			rp.cls = append(rp.cls, cl)
		}
	}
	if w.prefill == fillRequests {
		for _, id := range allKeys(w, seed) {
			for _, bin := range []bool{false, true} {
				if _, err := rp.serve(request{graph: id.graph, seed: id.seed, opt: id.opt, binary: bin}, -1); err != nil {
					rp.close()
					return nil, fmt.Errorf("replay prefill: %w", err)
				}
			}
		}
	}
	return rp, nil
}

// close drains the engine's detached persists and closes the store; a
// second call is a no-op.
func (rp *replayer) close() error {
	if rp.closed {
		return nil
	}
	rp.closed = true
	rp.eng.Close()
	return rp.st.Store.Close()
}

// serve replays one request and returns its in-process duration.
func (rp *replayer) serve(r request, reqID int32) (time.Duration, error) {
	ctx := context.Background()
	w, cg, tr := rp.w, rp.cat[r.graph], rp.tr
	var body []byte
	if r.binary {
		body = binaryBody(rp.cat, w, r)
	} else {
		body = jsonBody(rp.cat, w, r)
	}
	start := time.Now()
	root := tr.begin("request", -1, reqID)
	defer tr.end(root)

	fpText, spec, seed, optText := cg.fp.String(), w.parts, r.seed, w.options[r.opt]
	if r.binary {
		id := tr.begin("wire.decode_request", root, reqID)
		breq, err := wire.DecodeShortcutRequest(body)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		fpText, spec, seed, optText = breq.Graph.String(), breq.Partition, breq.Seed, breq.Options
	}
	id := tr.begin("service.graph", root, reqID)
	fp, err := service.ParseFingerprint(fpText)
	g, ok := rp.eng.Graph(fp)
	tr.end(id)
	if err != nil || !ok {
		return 0, fmt.Errorf("graph %s: ok=%v err=%v", fpText, ok, err)
	}
	id = tr.begin("cli.parse_options", root, reqID)
	opts, err := cli.ParseBuildOptions(optText)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	pkey := fpText + "/" + spec + "/" + strconv.FormatInt(seed, 10)
	parts, ok := rp.parts[pkey]
	if !ok {
		id = tr.begin("cli.parse_partition", root, reqID)
		parts, err = cli.ParsePartition(g, spec, seed)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		rp.parts[pkey] = parts
	}
	if rp.cls != nil {
		cl := rp.cls[r.node]
		id = tr.begin("cluster.owner", root, reqID)
		owner, self := cl.Owner(service.ShortcutKey(fp, parts, opts))
		tr.end(id)
		if !self {
			id = tr.begin("cluster.forward", root, reqID)
			var status int
			if r.binary {
				status, _, _, err = cl.ForwardRequestBinary(ctx, owner, "/v1/shortcuts", body)
			} else {
				status, _, err = cl.ForwardRequest(ctx, owner, "/v1/shortcuts", body)
			}
			tr.end(id)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("forward to %s: status %d", owner, status)
			}
			return time.Since(start), err
		}
	}
	id = tr.begin("service.build", root, reqID)
	rp.st.parent.Store(id)
	rp.st.req.Store(reqID)
	t0 := time.Now()
	c, hit, err := rp.eng.Build(ctx, service.BuildRequest{Graph: fp, Options: opts, Parts: parts})
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if !hit {
		rp.jobTime += d
		if c.Source == service.SourceBuilt {
			rp.builds = append(rp.builds, us(c.BuildTime))
		}
	}
	if r.binary {
		id = tr.begin("store.payload", root, reqID)
		_, ok, err := rp.st.ShortcutPayload(c.Key)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		if !ok {
			id = tr.begin("store.encode_payload", root, reqID)
			store.EncodeShortcutRecordPayload(c.GraphFP, c.Parts, opts, c.Result, c.BuildTime)
			tr.end(id)
		}
	} else if _, ok := c.QualityIfReady(); !ok {
		id = tr.begin("service.measure", root, reqID)
		t0 := time.Now()
		_, err := rp.eng.MeasureCached(ctx, c)
		d := time.Since(t0)
		tr.end(id)
		rp.jobTime += d
		rp.measures = append(rp.measures, us(d))
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
