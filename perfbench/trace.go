package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that made the call (-1 for a request's root, and
// for detached work such as the engine's background persists, which
// also carry Req -1).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// While off, begin returns -1 and nothing is recorded.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int32) int32 {
	if !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per request, the self time of each layer: a span's
// duration minus the part of it its children cover, summed by the layer
// named before the span name's first dot. Root spans ("request") and
// detached spans are not part of any layer.
func (t *tracer) selfTimes() map[int32]map[string]time.Duration {
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int32]map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Req < 0 || s.Parent < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self := time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		if out[s.Req] == nil {
			out[s.Req] = map[string]time.Duration{}
		}
		out[s.Req][layer] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, -1
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	meta["spans"] = t.spans
	b, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedStore is the replay engine's store: calls the engine makes into
// the store layer become spans under the engine call that caused them,
// and their durations are kept as the engine's load and persist times.
type tracedStore struct {
	*store.Store
	tr     *tracer
	parent atomic.Int32 // the service span of the in-flight Engine.Build
	req    atomic.Int32

	mu       sync.Mutex
	loads    []float64 // store hits, microseconds
	persists []float64
}

func (s *tracedStore) GetShortcut(key service.Fingerprint, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, bool, error) {
	id := s.tr.begin("store.get_shortcut", s.parent.Load(), s.req.Load())
	t0 := time.Now()
	res, bt, ok, err := s.Store.GetShortcut(key, g, parts)
	d := time.Since(t0)
	s.tr.end(id)
	if ok {
		s.mu.Lock()
		s.loads = append(s.loads, us(d))
		s.mu.Unlock()
	}
	return res, bt, ok, err
}

func (s *tracedStore) PutShortcut(key, graphFP service.Fingerprint, parts *partition.Partition,
	opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) error {
	id := s.tr.begin("store.put_shortcut", -1, -1)
	t0 := time.Now()
	err := s.Store.PutShortcut(key, graphFP, parts, opts, res, buildTime)
	d := time.Since(t0)
	s.tr.end(id)
	s.mu.Lock()
	s.persists = append(s.persists, us(d))
	s.mu.Unlock()
	return err
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
