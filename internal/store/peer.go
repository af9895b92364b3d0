package store

import (
	"fmt"
	"time"

	"locshort/internal/graph"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// Peer exchange surface: what internal/cluster moves between nodes. The unit
// of replication is the PeerRecord — a shortcut payload together with the
// graph and partition payloads it depends on, all in the exact canonical
// encodings the store already persists. Because graph and partition payloads
// hash to their own record keys and a shortcut payload re-derives its key
// from its stored inputs, a fetched record proves its own integrity:
// VerifyPeerRecord re-hashes and re-derives everything, so a peer (or a
// man-in-the-middle) cannot make a node accept bytes under a key they do not
// hash to. That property is what makes cross-node replication trustless.

// PeerRecord is one shortcut and its dependency closure, as raw store
// payloads. The fingerprints are the claimed record keys; nothing is trusted
// until VerifyPeerRecord (or ImportShortcut, which calls it) has re-derived
// them from the payload bytes.
type PeerRecord struct {
	Key         service.Fingerprint
	GraphFP     service.Fingerprint
	PartitionFP service.Fingerprint

	GraphPayload     []byte
	PartitionPayload []byte
	ShortcutPayload  []byte
}

// InventoryEntry is one live shortcut record in an inventory listing: the
// key plus the dependency fingerprints, enough for a replica to decide
// whether it should hold the record without fetching any payload.
type InventoryEntry struct {
	Key         service.Fingerprint
	GraphFP     service.Fingerprint
	PartitionFP service.Fingerprint
}

// inRange reports whether key lies on the arc (lo, hi] of the fingerprint
// circle, wrapping when lo >= hi; lo == hi means the full circle. The
// convention matches cluster.Range, so ring ownership arcs filter the
// inventory directly.
func inRange(key, lo, hi uint64) bool {
	switch {
	case lo == hi:
		return true
	case lo < hi:
		return key > lo && key <= hi
	default:
		return key > lo || key <= hi
	}
}

// EncodeGraphPayload renders the graph record payload for g, byte-identical
// to what PutGraph persists (so a pushed graph deduplicates on the peer).
func EncodeGraphPayload(g *graph.Graph) []byte { return encodeGraph(g) }

// DecodeGraphPayload reconstructs a graph from a record payload, verifying
// that the payload hashes to fp.
func DecodeGraphPayload(payload []byte, fp service.Fingerprint) (*graph.Graph, error) {
	return decodeGraph(payload, fp)
}

// DecodeShortcutPayload reconstructs a shortcut record payload against the
// caller's representative graph and requested partition — the peer-fetch
// serving path, where the engine needs the result expressed in its own live
// edge IDs. All of decodeShortcut's verification applies: structural
// validation plus re-derivation of key from the stored inputs.
func DecodeShortcutPayload(payload []byte, key service.Fingerprint,
	g *graph.Graph, parts *partition.Partition) (*shortcut.Result, time.Duration, error) {
	return decodeShortcut(payload, key, newEdgePerm(g), g, parts)
}

// VerifyPeerRecord fully verifies a fetched record against its claimed
// fingerprints: the graph payload must hash to GraphFP, the partition
// payload to PartitionFP (and decode to connected parts of that graph), the
// shortcut payload must reference exactly those dependencies, validate
// structurally, and re-derive Key from its stored (graph, partition,
// options). On success it returns the decoded objects; nothing about the
// record was taken on trust.
func VerifyPeerRecord(rec PeerRecord) (*graph.Graph, *partition.Partition, *shortcut.Result, time.Duration, error) {
	g, err := decodeGraph(rec.GraphPayload, rec.GraphFP)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	parts, err := decodePartition(rec.PartitionPayload, rec.PartitionFP, g)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	meta, err := parseShortcutMeta(rec.ShortcutPayload)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if meta.graphFP != rec.GraphFP || meta.partFP != rec.PartitionFP {
		return nil, nil, nil, 0, fmt.Errorf(
			"store: shortcut %s payload references (%s, %s), record claims (%s, %s)",
			rec.Key, meta.graphFP, meta.partFP, rec.GraphFP, rec.PartitionFP)
	}
	res, bt, err := decodeShortcut(rec.ShortcutPayload, rec.Key, newEdgePerm(g), g, parts)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return g, parts, res, bt, nil
}
