package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// Binary wire surface: the accessors and framings the binary HTTP protocol
// is built from. The principle throughout is that canonical record payloads
// move verbatim — the bytes a fingerprint was computed over are the bytes
// on the wire — so the receiving side verifies exactly what the store's
// own decoders already verify, and "binary" can never drift from "JSON"
// (the JSON peer API base64-wraps these same payloads).

// EncodeShortcutRecordPayload renders the canonical shortcut record payload
// for a built result, byte-identical to what PutShortcut persists. It is
// the fallback for serving a binary shortcut response when the record is
// not (yet) durable: a storeless daemon, or a freshly built result whose
// detached persist has not landed. It pays a fresh edge-permutation sort;
// the store-backed path (ShortcutPayload) is the fast one.
func EncodeShortcutRecordPayload(graphFP service.Fingerprint, parts *partition.Partition,
	opts shortcut.Options, res *shortcut.Result, buildTime time.Duration) []byte {

	partFP := service.FingerprintPartition(parts)
	return encodeShortcut(newEdgePerm(res.Shortcut.G), graphFP, partFP, opts, res, buildTime)
}

// peerRecordVersion versions the binary PeerRecord framing.
const peerRecordVersion = 1

// AppendPeerRecord renders rec in the binary peer-exchange framing,
// appending to b: version byte, the three big-endian fingerprints (key,
// graph, partition), then the graph, partition, and shortcut payloads each
// prefixed with a uvarint length. The JSON peer API carries the same five
// facts with base64-wrapped payloads; this framing carries them raw.
func AppendPeerRecord(b []byte, rec PeerRecord) []byte {
	b = append(b, peerRecordVersion)
	b = binary.BigEndian.AppendUint64(b, uint64(rec.Key))
	b = binary.BigEndian.AppendUint64(b, uint64(rec.GraphFP))
	b = binary.BigEndian.AppendUint64(b, uint64(rec.PartitionFP))
	for _, p := range [...][]byte{rec.GraphPayload, rec.PartitionPayload, rec.ShortcutPayload} {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	return b
}

// DecodePeerRecord parses a binary peer-record frame. The payload slices
// alias b — the caller owns the buffer and must not recycle it while the
// record is in use. Nothing is verified here beyond framing: the claimed
// fingerprints are untrusted until VerifyPeerRecord re-derives them, same
// as a record that arrived via the JSON peer API.
func DecodePeerRecord(b []byte) (PeerRecord, error) {
	var rec PeerRecord
	if len(b) < 1+24 || b[0] != peerRecordVersion {
		return rec, fmt.Errorf("store: peer record: bad version or truncated head")
	}
	rec.Key = service.Fingerprint(binary.BigEndian.Uint64(b[1:]))
	rec.GraphFP = service.Fingerprint(binary.BigEndian.Uint64(b[9:]))
	rec.PartitionFP = service.Fingerprint(binary.BigEndian.Uint64(b[17:]))
	b = b[25:]
	for _, dst := range [...]*[]byte{&rec.GraphPayload, &rec.PartitionPayload, &rec.ShortcutPayload} {
		n, used := binary.Uvarint(b)
		if used <= 0 || n > maxRecordBytes || uint64(len(b)-used) < n {
			return rec, fmt.Errorf("store: peer record: truncated payload")
		}
		*dst = b[used : used+int(n) : used+int(n)]
		b = b[used+int(n):]
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("store: peer record: %d trailing bytes", len(b))
	}
	return rec, nil
}
