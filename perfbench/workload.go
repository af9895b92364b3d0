package main

import (
	"fmt"
	"math/rand"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/wire"
)

// workload is one traffic mix against locshortd. The request stream is a
// pure function of the run seed; the daemons only ever see the generated
// requests.
type workload struct {
	name    string
	catalog []string
	parts   string
	// keySpace is the number of partition seeds per graph: small spaces
	// make every key resident after set-up, a huge one makes almost every
	// request a new key.
	keySpace int64
	// options are the shortcut option strings requests cycle through.
	options []string
	// cache is locshortd's -cache (0: the daemon default).
	cache int
	nodes int
	// conns is the closed loop's connection count: locshortd's callers
	// each wait for their reply, and the reference box has two cores.
	// cold-build uses one: with two, its builds saturate both cores and
	// its latencies swing with the host's other tenants.
	conns int
	// prefill is how set-up makes the key space resident before
	// measuring: by requesting every key from the daemon, or by writing
	// every record through the store package so the daemon restarts on it.
	prefill prefillKind
}

type prefillKind int

const (
	fillNone prefillKind = iota
	fillRequests
	fillStore
)

var warmCatalog = []string{"grid:32x32", "torus:16x16", "wheel:200", "ktree:300,4"}

// coldCatalog is cold-build's catalog; the per-family shortcut.* layer
// metrics are measured on it in every traced run.
var coldCatalog = []string{"grid:48x48", "torus:32x32", "ktree:600,8", "lb:6,24", "random:300,4000"}

// coldFamilies names coldCatalog's entries in the per-layer metric names.
var coldFamilies = []string{"grid", "torus", "ktree", "lb", "random"}

var workloads = []*workload{
	{name: "warm-hit", catalog: warmCatalog, parts: "blobs:32", keySpace: 4,
		options: []string{""}, nodes: 1, conns: 2, prefill: fillRequests},
	{name: "cold-build", catalog: coldCatalog, parts: "blobs:32", keySpace: 1_000_000,
		options: []string{"", "cf=1,bf=1"}, nodes: 1, conns: 1, prefill: fillNone},
	{name: "store-reload", catalog: warmCatalog, parts: "blobs:32", keySpace: 64,
		options: []string{""}, cache: 16, nodes: 1, conns: 2, prefill: fillStore},
	{name: "cluster-forward", catalog: warmCatalog, parts: "blobs:32", keySpace: 4,
		options: []string{""}, nodes: 3, conns: 2, prefill: fillRequests},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// catalogGraph is one catalog entry as the daemon holds it. Graphs are
// ingested as canonical payloads, so the daemon's representative is the
// decoded payload; the benchmark decodes the same bytes, which keeps
// seeded partitions (whose shape follows adjacency order) identical on
// both sides.
type catalogGraph struct {
	spec    string
	payload []byte
	fp      service.Fingerprint
	g       *graph.Graph
}

func loadCatalog(specs []string) ([]*catalogGraph, error) {
	out := make([]*catalogGraph, len(specs))
	for i, spec := range specs {
		g0, _, err := cli.ParseGraph(spec, 0)
		if err != nil {
			return nil, err
		}
		payload := store.EncodeGraphPayload(g0)
		fp := service.FingerprintBytes(payload[1:])
		g, err := store.DecodeGraphPayload(payload, fp)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", spec, err)
		}
		out[i] = &catalogGraph{spec: spec, payload: payload, fp: fp, g: g}
	}
	return out, nil
}

// request is one shortcut request of the stream.
type request struct {
	graph  int // catalog index
	seed   int64
	opt    int // index into workload.options
	binary bool
	node   int // daemon the request is sent to
}

// keyID identifies a (graph, partition seed, options) key of the stream.
type keyID struct {
	graph int
	seed  int64
	opt   int
}

func (r request) key() keyID { return keyID{r.graph, r.seed, r.opt} }

// seedBase offsets partition seeds by the run seed, so another --seed
// asks for other partitions of the same catalog.
func seedBase(runSeed int64) int64 { return runSeed << 24 }

// stream generates one connection's requests. Encodings alternate per
// request and options per pair of requests. The graph changes with every
// request, so consecutive builds never share the Builder's last-root
// memo; the extra step every 2n requests (n graphs) gives each graph
// both encodings. Every run thus sends the same mix of families, options
// and encodings (a random mix would move the medians between seeds).
// Cluster requests rotate across the nodes. The seed picks the
// partitions.
type stream struct {
	w    *workload
	rng  *rand.Rand
	base int64
	conn int
	i    int
}

func newStream(w *workload, runSeed int64, conn int) *stream {
	return &stream{w: w, rng: rand.New(rand.NewSource(runSeed*7919 + int64(conn))),
		base: seedBase(runSeed), conn: conn}
}

func (s *stream) next() request {
	n := len(s.w.catalog)
	r := request{
		graph:  (s.i + s.i/(2*n) + s.conn) % n,
		seed:   s.base + s.rng.Int63n(s.w.keySpace),
		opt:    (s.i / 2) % len(s.w.options),
		binary: s.i%2 == 1,
		node:   (s.i + s.conn) % s.w.nodes,
	}
	s.i++
	return r
}

// sequence returns the first n requests of each of the workload's
// connections, interleaved connection by connection: the order the
// in-process replay and the layer measurements walk.
func sequence(w *workload, runSeed int64, n int) []request {
	ss := make([]*stream, w.conns)
	for c := range ss {
		ss[c] = newStream(w, runSeed, c)
	}
	out := make([]request, 0, w.conns*n)
	for i := 0; i < n; i++ {
		for _, s := range ss {
			out = append(out, s.next())
		}
	}
	return out
}

// allKeys lists the whole key space of a workload with a small one, in a
// fixed order: what set-up makes resident.
func allKeys(w *workload, runSeed int64) []keyID {
	var out []keyID
	for s := int64(0); s < w.keySpace; s++ {
		for g := range w.catalog {
			out = append(out, keyID{g, seedBase(runSeed) + s, 0})
		}
	}
	return out
}

// binaryBody and jsonBody render a request in the two encodings.
func binaryBody(cat []*catalogGraph, w *workload, r request) []byte {
	return wire.AppendShortcutRequest(nil, wire.ShortcutRequest{
		Graph: cat[r.graph].fp, Partition: w.parts, Seed: r.seed, Options: w.options[r.opt],
	})
}

func jsonBody(cat []*catalogGraph, w *workload, r request) []byte {
	return fmt.Appendf(nil, `{"graph":%q,"partition":%q,"seed":%d,"options":%q}`,
		cat[r.graph].fp.String(), w.parts, r.seed, w.options[r.opt])
}

// resolved is a key with its inputs materialized the way the daemon
// materializes them.
type resolved struct {
	id    keyID
	cg    *catalogGraph
	parts *partition.Partition
	opts  shortcut.Options
	key   service.Fingerprint
}

func resolve(cat []*catalogGraph, w *workload, id keyID) (*resolved, error) {
	cg := cat[id.graph]
	parts, err := cli.ParsePartition(cg.g, w.parts, id.seed)
	if err != nil {
		return nil, err
	}
	opts, err := cli.ParseBuildOptions(w.options[id.opt])
	if err != nil {
		return nil, err
	}
	return &resolved{id: id, cg: cg, parts: parts, opts: opts,
		key: service.ShortcutKey(cg.fp, parts, opts)}, nil
}
