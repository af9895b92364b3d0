package store

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"time"

	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// kvCore is the one record layer every backend shares (the segment Store,
// Mem, ObjDir): the live-record index, dependency tracking from graphs to
// the shortcuts built on them, no-resurrection, tombstone deletes, peer
// import and export, listings and verification, layered over a
// payloadStore that only keeps payloads. The payload encodings are the
// canonical record payloads of encode.go, so every backend is mutually
// interoperable at the peer-exchange layer and verifiable by the same
// decoders; only durability and placement differ.
//
// Locking: writeMu serializes mutations and is held across payload
// writes; mu guards the index and is held only for short critical
// sections plus each payload read, so reads are never stalled behind
// persistence, and a read racing Close, a delete or a compaction sees the
// record or a miss. Because every read holds mu across payloadStore.get,
// an index install (a put's mu.Lock) waits for in-flight gets and later
// readers queue behind it: get must be fast and must never block on
// anything but its own I/O. Lock order: writeMu before mu.
//
// Close empties the index, so a closed backend holds nothing: every read
// misses, every listing and count is empty, and every write fails.
type kvCore struct {
	kind string // backend kind, for error messages
	dir  string // root directory; "" for backends with no on-disk presence

	ps payloadStore

	writeMu sync.Mutex

	mu     sync.RWMutex
	closed bool
	index  map[indexKey]kvMeta
	// byGraph maps a graph fingerprint to the keys of the shortcuts built
	// on it.
	byGraph map[service.Fingerprint]map[service.Fingerprint]struct{}
	open    OpenStats // Open-time repair counters; record counts computed on demand

	// perms memoizes canonical edge permutations (see permCache).
	perms permCache
}

type indexKey struct {
	kind byte
	key  service.Fingerprint
}

// kvMeta is the index entry for one live record.
type kvMeta struct {
	// seg and off locate the record's frame in the segment log (zero on
	// other backends); size is that framed size there and the payload
	// size elsewhere.
	seg  int
	off  int64
	size int64

	graphFP service.Fingerprint // shortcut records only
	partFP  service.Fingerprint // shortcut records only
}

// parseDeps fills in the dependency fingerprints a shortcut payload
// references; other kinds have none.
func (m *kvMeta) parseDeps(kind byte, payload []byte) error {
	if kind != kindShortcut {
		return nil
	}
	sm, err := parseShortcutMeta(payload)
	if err != nil {
		return err
	}
	m.graphFP, m.partFP = sm.graphFP, sm.partFP
	return nil
}

// payloadStore is where a backend keeps record payloads. put must be
// atomic (a reader never observes a partial payload) and, for durable
// implementations, crash-safe: after put returns nil the payload survives
// a crash; after an error the record is either absent or the old version.
// put returns the record's locator and size (see kvMeta), which kvCore
// keeps in its index and hands back to get. get and footprint are called
// with kvCore.mu read-held, so a slow get delays index installs and every
// reader queued behind them: get is expected to be a memory access or a
// single small file read, never a wait on another lock. verify asks get to re-check whatever integrity
// data the store keeps beside the payload even where reads normally skip
// it. get for a record that is gone may return fs.ErrNotExist, which
// kvCore treats as a miss. del for a graph must be durable before it
// returns: kvCore drops the graph from the index only afterwards.
// footprint adjusts OpenStats for what the store keeps beyond the live
// payloads.
type payloadStore interface {
	put(kind byte, key service.Fingerprint, payload []byte) (kvMeta, error)
	get(kind byte, key service.Fingerprint, meta kvMeta, verify bool) ([]byte, error)
	del(kind byte, key service.Fingerprint) error
	footprint(st *OpenStats)
	close() error
}

func newKVCore(kind, dir string, ps payloadStore) kvCore {
	return kvCore{
		kind:    kind,
		dir:     dir,
		ps:      ps,
		index:   make(map[indexKey]kvMeta),
		byGraph: make(map[service.Fingerprint]map[service.Fingerprint]struct{}),
	}
}

// permCache memoizes canonical edge permutations per graph *instance* —
// deliberately not per fingerprint: two representations of the same
// content (a live representative and its canonical decode, or a re-ingest
// after DeleteGraph with a different edge order) share a fingerprint but
// need different permutations, and a fingerprint key would silently serve
// the wrong one. The map is cleared past a size bound so transient graphs
// (Verify decodes) cannot grow it forever.
type permCache struct {
	mu sync.Mutex
	m  map[*graph.Graph]*edgePerm
}

// permCacheLimit bounds the perm memo; engines pin far fewer
// representatives than this, so clearing only ever drops transient
// entries.
const permCacheLimit = 256

// get returns the memoized canonical edge permutation for this exact graph
// instance.
func (pc *permCache) get(g *graph.Graph) *edgePerm {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	p := pc.m[g]
	if p == nil {
		if pc.m == nil || len(pc.m) >= permCacheLimit {
			pc.m = make(map[*graph.Graph]*edgePerm)
		}
		p = newEdgePerm(g)
		pc.m[g] = p
	}
	return p
}

// indexPutLocked installs a live record, newest-wins. Caller holds mu (or
// is a backend's single-threaded Open).
func (c *kvCore) indexPutLocked(kind byte, key service.Fingerprint, meta kvMeta) {
	ik := indexKey{kind: kind, key: key}
	if old, ok := c.index[ik]; ok && kind == kindShortcut {
		if deps := c.byGraph[old.graphFP]; deps != nil {
			delete(deps, key)
			if len(deps) == 0 {
				delete(c.byGraph, old.graphFP)
			}
		}
	}
	c.index[ik] = meta
	if kind == kindShortcut {
		deps := c.byGraph[meta.graphFP]
		if deps == nil {
			deps = make(map[service.Fingerprint]struct{})
			c.byGraph[meta.graphFP] = deps
		}
		deps[key] = struct{}{}
	}
}

// dropGraphLocked removes graph fp and every shortcut built on it from the
// index, returning the shortcut keys. Caller holds mu (or is a backend's
// single-threaded Open replaying a tombstone).
func (c *kvCore) dropGraphLocked(fp service.Fingerprint) []service.Fingerprint {
	deps := c.byGraph[fp]
	keys := make([]service.Fingerprint, 0, len(deps))
	for key := range deps {
		keys = append(keys, key)
		delete(c.index, indexKey{kind: kindShortcut, key: key})
	}
	delete(c.byGraph, fp)
	delete(c.index, indexKey{kind: kindGraph, key: fp})
	return keys
}

// indexEntry is one live record as listed by sortedLocked.
type indexEntry struct {
	ik   indexKey
	meta kvMeta
}

// sortedLocked lists the live records by kind byte then key — the same
// order as by kind name, which Records promises. Caller holds mu.
func (c *kvCore) sortedLocked() []indexEntry {
	out := make([]indexEntry, 0, len(c.index))
	for ik, meta := range c.index {
		out = append(out, indexEntry{ik, meta})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ik.kind != out[j].ik.kind {
			return out[i].ik.kind < out[j].ik.kind
		}
		return out[i].ik.key < out[j].ik.key
	})
	return out
}

// has reports whether a live record exists.
func (c *kvCore) has(kind byte, key service.Fingerprint) bool {
	c.mu.RLock()
	_, ok := c.index[indexKey{kind: kind, key: key}]
	c.mu.RUnlock()
	return ok
}

func (c *kvCore) errClosed() error { return fmt.Errorf("store: %s backend closed", c.kind) }

// errIfClosed fails every write after Close. Caller holds writeMu, which
// Close holds while it sets closed.
func (c *kvCore) errIfClosed() error {
	if c.closed {
		return c.errClosed()
	}
	return nil
}

// putRecord durably writes one record and installs it in the index. Caller
// holds writeMu.
func (c *kvCore) putRecord(kind byte, key service.Fingerprint, payload []byte) error {
	if err := c.errIfClosed(); err != nil {
		return err
	}
	var deps kvMeta
	if err := deps.parseDeps(kind, payload); err != nil {
		return err
	}
	meta, err := c.ps.put(kind, key, payload)
	if err != nil {
		return err
	}
	meta.graphFP, meta.partFP = deps.graphFP, deps.partFP
	c.mu.Lock()
	c.indexPutLocked(kind, key, meta)
	c.mu.Unlock()
	return nil
}

// payloadOf reads a live record's payload: the warm read path under every
// Get. A record deleted before the read, or any record of a closed
// backend, is a miss.
//
//locshort:hotpath
func (c *kvCore) payloadOf(kind byte, key service.Fingerprint) ([]byte, bool, error) {
	return c.readPayload(kind, key, false)
}

// readPayload is payloadOf with the payload store's verify switch. mu stays
// read-held across the payload read, so Close, a delete or a compaction
// cannot pull the record out from under it.
//
//locshort:hotpath
func (c *kvCore) readPayload(kind byte, key service.Fingerprint, verify bool) ([]byte, bool, error) {
	c.mu.RLock()
	meta, ok := c.index[indexKey{kind: kind, key: key}]
	if !ok {
		c.mu.RUnlock()
		return nil, false, nil
	}
	payload, err := c.ps.get(kind, key, meta, verify)
	c.mu.RUnlock()
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// PutGraph persists g under its content fingerprint; known content is a
// cheap no-op. Implements service.Store.
func (c *kvCore) PutGraph(fp service.Fingerprint, g *graph.Graph) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.has(kindGraph, fp) {
		return nil
	}
	return c.putRecord(kindGraph, fp, encodeGraph(g))
}

// PutGraphPayload persists an already-encoded canonical graph payload
// verbatim under fp — the binary ingest path, which has the exact bytes in
// hand and must not pay a decode→re-encode round trip. The payload is
// verified against fp before anything is written (the store stays
// self-verifying no matter who assembled the bytes); known content is a
// cheap no-op. Implements service.GraphPayloadStore.
func (c *kvCore) PutGraphPayload(fp service.Fingerprint, payload []byte) error {
	if len(payload) < 1 || payload[0] != graphPayloadVersion {
		return fmt.Errorf("store: graph %s: bad payload version", fp)
	}
	if got := service.FingerprintBytes(payload[1:]); got != fp {
		return fmt.Errorf("store: graph %s: payload hashes to %s", fp, got)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.has(kindGraph, fp) {
		return nil
	}
	return c.putRecord(kindGraph, fp, payload)
}

// EachGraph decodes every live graph record, ascending by fingerprint.
// Implements service.Store.
func (c *kvCore) EachGraph(fn func(fp service.Fingerprint, g *graph.Graph) error) error {
	for _, fp := range c.GraphFingerprints() {
		payload, ok, err := c.payloadOf(kindGraph, fp)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted mid-iteration
		}
		g, err := decodeGraph(payload, fp)
		if err != nil {
			return err
		}
		if err := fn(fp, g); err != nil {
			return err
		}
	}
	return nil
}

// GetGraph decodes the live graph record for fp, if any.
func (c *kvCore) GetGraph(fp service.Fingerprint) (*graph.Graph, bool, error) {
	payload, ok, err := c.payloadOf(kindGraph, fp)
	if err != nil || !ok {
		return nil, false, err
	}
	g, err := decodeGraph(payload, fp)
	if err != nil {
		return nil, false, err
	}
	return g, true, nil
}

// GetPartition decodes the live partition record for fp against g,
// validating part connectivity. Used by offline inspection (the serving
// path never needs it: requests carry their partition).
func (c *kvCore) GetPartition(fp service.Fingerprint, g *graph.Graph) (*partition.Partition, bool, error) {
	payload, ok, err := c.payloadOf(kindPartition, fp)
	if err != nil || !ok {
		return nil, false, err
	}
	p, err := decodePartition(payload, fp, g)
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// PutShortcut persists the partition record (deduplicated) and the shortcut
// record. Implements service.Store. A shortcut whose graph record is no
// longer live is silently dropped: a detached engine persist can race a
// DeleteGraph, and writing the record after the delete would resurrect a
// shortcut whose graph is gone (an orphan that fails Verify).
func (c *kvCore) PutShortcut(key, graphFP service.Fingerprint, parts *partition.Partition,
	opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) error {

	partFP := service.FingerprintPartition(parts)
	payload := encodeShortcut(c.perms.get(res.Shortcut.G), graphFP, partFP, opts, res, buildTime)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.errIfClosed(); err != nil {
		return err
	}
	if !c.has(kindGraph, graphFP) || c.has(kindShortcut, key) {
		return nil
	}
	if !c.has(kindPartition, partFP) {
		if err := c.putRecord(kindPartition, partFP, encodePartition(parts)); err != nil {
			return err
		}
	}
	return c.putRecord(kindShortcut, key, payload)
}

// GetShortcut loads and reconstructs the shortcut stored under key against
// the live representative g and the requested partition. Implements
// service.Store.
//
//locshort:hotpath
func (c *kvCore) GetShortcut(key service.Fingerprint, g *graph.Graph, parts *partition.Partition) (
	*shortcut.Result, time.Duration, bool, error) {

	payload, ok, err := c.payloadOf(kindShortcut, key)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	res, bt, err := decodeShortcut(payload, key, c.perms.get(g), g, parts)
	if err != nil {
		return nil, 0, false, err
	}
	return res, bt, true, nil
}

// DeleteGraph removes the graph record for fp and every shortcut built on
// it; deleting an absent graph is a no-op. Implements service.Store. The
// graph's payload is deleted first and durably (the segment log appends a
// tombstone), then the index drops the graph and its shortcuts, then their
// payloads go. A crash after the first step leaves shortcut payloads
// orphaned, which every durable backend hides or sweeps on its next Open;
// the reverse order could leave a graph whose shortcuts silently vanished.
func (c *kvCore) DeleteGraph(fp service.Fingerprint) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.errIfClosed(); err != nil {
		return err
	}
	c.mu.RLock()
	_, haveGraph := c.index[indexKey{kind: kindGraph, key: fp}]
	haveDeps := len(c.byGraph[fp]) > 0
	c.mu.RUnlock()
	if !haveGraph && !haveDeps {
		return nil
	}
	if err := c.ps.del(kindGraph, fp); err != nil {
		return err
	}
	c.mu.Lock()
	keys := c.dropGraphLocked(fp)
	c.mu.Unlock()
	var first error
	for _, key := range keys {
		if err := c.ps.del(kindShortcut, key); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PutJob durably writes (or supersedes) an async job record under its job
// ID. Implements jobs.Store. Unlike the content-addressed kinds the payload
// mutates over a job's lifecycle, so every call writes.
func (c *kvCore) PutJob(id uint64, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.putRecord(kindJob, service.Fingerprint(id), payload)
}

// GetJob returns the live job record payload for id, if any. Implements
// jobs.Store.
func (c *kvCore) GetJob(id uint64) ([]byte, bool, error) {
	return c.payloadOf(kindJob, service.Fingerprint(id))
}

// EachJob calls fn for every live job record, ascending by ID. Implements
// jobs.Store (used by Manager.Recover on warm start).
func (c *kvCore) EachJob(fn func(id uint64, payload []byte) error) error {
	c.mu.RLock()
	ids := make([]service.Fingerprint, 0, 8)
	for ik := range c.index {
		if ik.kind == kindJob {
			ids = append(ids, ik.key)
		}
	}
	c.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		payload, ok, err := c.payloadOf(kindJob, id)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(uint64(id), payload); err != nil {
			return err
		}
	}
	return nil
}

// HasShortcut reports whether a live shortcut record exists for key.
func (c *kvCore) HasShortcut(key service.Fingerprint) bool { return c.has(kindShortcut, key) }

// GraphKnown reports whether a live graph record exists for fp.
func (c *kvCore) GraphKnown(fp service.Fingerprint) bool { return c.has(kindGraph, fp) }

// GraphPayload returns the raw graph record payload for fp (version byte +
// canonical encoding), suitable for shipping to a peer.
func (c *kvCore) GraphPayload(fp service.Fingerprint) ([]byte, bool, error) {
	return c.payloadOf(kindGraph, fp)
}

// ShortcutPayload returns the raw shortcut record payload for key — the
// binary /v1/shortcuts response body. On a mapped segment the slice is
// zero-copy (see segmentLog.get); treat it as read-only.
//
//locshort:hotpath
func (c *kvCore) ShortcutPayload(key service.Fingerprint) ([]byte, bool, error) {
	return c.payloadOf(kindShortcut, key)
}

// ShortcutRecord assembles the PeerRecord for key (see PeerStore).
func (c *kvCore) ShortcutRecord(key service.Fingerprint) (PeerRecord, bool, error) {
	var rec PeerRecord
	c.mu.RLock()
	meta, ok := c.index[indexKey{kind: kindShortcut, key: key}]
	c.mu.RUnlock()
	if !ok {
		return rec, false, nil
	}
	rec.Key, rec.GraphFP, rec.PartitionFP = key, meta.graphFP, meta.partFP
	var err error
	var found bool
	if rec.ShortcutPayload, found, err = c.payloadOf(kindShortcut, key); err != nil || !found {
		return rec, false, err
	}
	if rec.GraphPayload, found, err = c.payloadOf(kindGraph, meta.graphFP); err != nil {
		return rec, false, err
	} else if !found {
		return rec, false, fmt.Errorf("store: shortcut %s references missing graph %s", key, meta.graphFP)
	}
	if rec.PartitionPayload, found, err = c.payloadOf(kindPartition, meta.partFP); err != nil {
		return rec, false, err
	} else if !found {
		return rec, false, fmt.Errorf("store: shortcut %s references missing partition %s", key, meta.partFP)
	}
	return rec, true, nil
}

// ShortcutInventory lists the live shortcut records on the arc (lo, hi].
// It reads only the index — no payloads — so a full-inventory scan during
// an anti-entropy round is cheap even on a large store.
func (c *kvCore) ShortcutInventory(lo, hi uint64) []InventoryEntry {
	c.mu.RLock()
	out := make([]InventoryEntry, 0, 64)
	for ik, meta := range c.index {
		if ik.kind != kindShortcut || !inRange(uint64(ik.key), lo, hi) {
			continue
		}
		out = append(out, InventoryEntry{Key: ik.key, GraphFP: meta.graphFP, PartitionFP: meta.partFP})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// GraphFingerprints lists the live graph record keys, sorted.
func (c *kvCore) GraphFingerprints() []service.Fingerprint {
	c.mu.RLock()
	out := make([]service.Fingerprint, 0, 8)
	for ik := range c.index {
		if ik.kind == kindGraph {
			out = append(out, ik.key)
		}
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ImportShortcut verifies rec end to end and durably installs the records
// this backend is missing: the graph and partition payloads only if absent,
// then the shortcut record (see PeerStore). The verify-then-write order
// plus writeMu makes the import atomic with respect to a concurrent
// DeleteGraph: a record can never be resurrected under a delete that came
// first.
func (c *kvCore) ImportShortcut(rec PeerRecord) (*graph.Graph, bool, error) {
	g, _, _, _, err := VerifyPeerRecord(rec)
	if err != nil {
		return nil, false, err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.has(kindShortcut, rec.Key) {
		return g, false, nil
	}
	if !c.has(kindGraph, rec.GraphFP) {
		if err := c.putRecord(kindGraph, rec.GraphFP, rec.GraphPayload); err != nil {
			return g, false, err
		}
	}
	if !c.has(kindPartition, rec.PartitionFP) {
		if err := c.putRecord(kindPartition, rec.PartitionFP, rec.PartitionPayload); err != nil {
			return g, false, err
		}
	}
	if err := c.putRecord(kindShortcut, rec.Key, rec.ShortcutPayload); err != nil {
		return g, false, err
	}
	return g, true, nil
}

// RecordInfo describes one live record for listings.
type RecordInfo struct {
	// Kind is "graph", "partition", "shortcut", or "job".
	Kind string
	Key  service.Fingerprint
	// Segment and Offset locate the record in the segment store (zero on
	// other backends); Bytes is its framed size there and its payload size
	// elsewhere.
	Segment int
	Offset  int64
	Bytes   int64
	// GraphFP and PartitionFP are the dependencies of a shortcut record
	// (zero otherwise).
	GraphFP     service.Fingerprint
	PartitionFP service.Fingerprint
}

func kindName(kind byte) string {
	switch kind {
	case kindGraph:
		return "graph"
	case kindPartition:
		return "partition"
	case kindShortcut:
		return "shortcut"
	case kindJob:
		return "job"
	}
	return fmt.Sprintf("kind(%c)", kind)
}

// Records lists the live records sorted by kind then key.
func (c *kvCore) Records() []RecordInfo {
	c.mu.RLock()
	recs := c.sortedLocked()
	c.mu.RUnlock()
	out := make([]RecordInfo, len(recs))
	for i, r := range recs {
		out[i] = RecordInfo{
			Kind:        kindName(r.ik.kind),
			Key:         r.ik.key,
			Segment:     r.meta.seg,
			Offset:      r.meta.off,
			Bytes:       r.meta.size,
			GraphFP:     r.meta.graphFP,
			PartitionFP: r.meta.partFP,
		}
	}
	return out
}

// OpenStats reports live record counts and on-disk footprint, plus what
// Open repaired.
func (c *kvCore) OpenStats() OpenStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := c.open
	for ik, meta := range c.index {
		st.Bytes += meta.size
		switch ik.kind {
		case kindGraph:
			st.Graphs++
		case kindPartition:
			st.Partitions++
		case kindShortcut:
			st.Shortcuts++
		case kindJob:
			st.Jobs++
		}
	}
	c.ps.footprint(&st)
	return st
}

// Dir returns the backend's root directory ("" for Mem).
func (c *kvCore) Dir() string { return c.dir }

// Problem is one verification failure.
type Problem struct {
	Kind string
	Key  service.Fingerprint
	Err  error
}

func (p Problem) String() string { return fmt.Sprintf("%s %s: %v", p.Kind, p.Key, p.Err) }

// Verify re-reads and fully decodes every live record: the payload store's
// own integrity data (frame checksums, re-checked even for records served
// zero-copy from mapped segments — Verify exists to catch corruption that
// happened after a record was indexed), payload-to-key content hashes,
// structural validation (graph adjacency, partition connectedness,
// shortcut edge sets against their tree), and shortcut key re-derivation
// from the stored inputs. It returns one Problem per failing record; an
// empty slice means the backend is clean.
func (c *kvCore) Verify() []Problem {
	var problems []Problem
	bad := func(ik indexKey, err error) {
		problems = append(problems, Problem{Kind: kindName(ik.kind), Key: ik.key, Err: err})
	}
	c.mu.RLock()
	recs := c.sortedLocked()
	c.mu.RUnlock()
	graphs := make(map[service.Fingerprint]*graph.Graph)
	for _, r := range recs {
		payload, ok, err := c.readPayload(r.ik.kind, r.ik.key, true)
		if err != nil {
			bad(r.ik, err)
			continue
		}
		if !ok {
			continue // deleted mid-verify
		}
		switch r.ik.kind {
		case kindGraph:
			g, err := decodeGraph(payload, r.ik.key)
			if err == nil {
				err = g.Validate()
			}
			if err != nil {
				bad(r.ik, err)
				continue
			}
			graphs[r.ik.key] = g
		case kindPartition:
			if len(payload) < 1 || payload[0] != partitionPayloadVersion {
				bad(r.ik, fmt.Errorf("bad payload version"))
			} else if got := service.FingerprintBytes(payload[1:]); got != r.ik.key {
				bad(r.ik, fmt.Errorf("content hash mismatch"))
			}
		case kindShortcut:
			g, ok := graphs[r.meta.graphFP]
			if !ok {
				bad(r.ik, fmt.Errorf("references missing graph %s", r.meta.graphFP))
				continue
			}
			ppay, found, err := c.payloadOf(kindPartition, r.meta.partFP)
			if err != nil || !found {
				bad(r.ik, fmt.Errorf("references missing partition %s (err=%v)", r.meta.partFP, err))
				continue
			}
			parts, err := decodePartition(ppay, r.meta.partFP, g)
			if err == nil {
				_, _, err = decodeShortcut(payload, r.ik.key, c.perms.get(g), g, parts)
			}
			if err != nil {
				bad(r.ik, err)
			}
		case kindJob:
			// Job records are not content-addressed (random IDs, mutable
			// state), so verification is structural: the payload decodes
			// and its embedded ID matches the record key.
			rec, err := jobs.DecodeRecord(payload)
			if err != nil {
				bad(r.ik, err)
			} else if uint64(rec.ID) != uint64(r.ik.key) {
				bad(r.ik, fmt.Errorf("record claims job id %s", rec.ID))
			}
		}
	}
	return problems
}

// Close marks the backend closed and empties its index — every later read
// misses, every listing and count is empty, and every write fails — then
// releases the payload store. Durable backends never lose acknowledged
// records at Close; zero-copy payload slices handed out by reads become
// invalid, so callers drain readers first.
func (c *kvCore) Close() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.index = make(map[indexKey]kvMeta)
	c.byGraph = make(map[service.Fingerprint]map[service.Fingerprint]struct{})
	c.open = OpenStats{}
	c.mu.Unlock()
	return c.ps.close()
}
