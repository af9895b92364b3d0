// Package store is the durable snapshot store behind locshortd's -data
// flag: a content-addressed, append-only segment log that persists graphs,
// partitions, and built shortcuts under the service layer's 64-bit
// fingerprints, so the ~50x warm-over-cold advantage of the shortcut cache
// survives restarts instead of being rebuilt in a cold-build stampede.
//
// The design leans on the same observation the serving layer does
// (DESIGN.md §4, following the shortcut-framework treatment of
// Ghaffari–Haeupler, PODC 2021): a shortcut is a pure function of
// (graph, partition, build options), so its content address is a durable
// identity. Graph and partition payloads are exactly the canonical byte
// encodings their fingerprints hash (graph.AppendCanonical,
// service.AppendPartitionCanonical) — the store is self-verifying: FNV-1a
// over the payload is the record key. Shortcut payloads express every edge
// ID in canonical edge order so they decode correctly against whatever
// representative graph a future process holds.
//
// The store also carries the async job records of internal/jobs ('J'
// frames in the same segments). Those are the one non-content-addressed
// kind — keyed by random job ID, superseded in place as the job's state
// advances — and they are what lets a locshortd restart re-enqueue
// accepted-but-unfinished work (DESIGN.md §7).
//
// Durability model: framed records with CRC-32C checksums appended to
// numbered segment files, fsync per append, newest-record-wins replay,
// tombstones for graph deletion, torn-tail truncation and corrupt-record
// skipping on open, and write-tmp-then-rename compaction (GC). See the
// format comment in store.go and OPERATIONS.md for the operator runbook
// (locshortctl ls / inspect / verify / gc).
//
// The full contract the layers above depend on is written down as the
// Backend interface (backend.go) and enforced by the storetest
// conformance suite (internal/store/storetest). It is implemented once,
// by the record layer in kvcore.go, over three payload stores: the
// append-only segment log (Store, the default), the ephemeral in-memory
// backend (Mem), and the S3-style object-directory tier (ObjDir, one
// atomically-written file per record). OpenBackend selects among them —
// the daemons' -store flag.
// Space reclamation is the optional Compactor capability, not part of
// Backend. See DESIGN.md §11.
//
// # Role in the DAG
//
// Depends on internal/graph, internal/partition, internal/tree,
// internal/shortcut, internal/service (for the fingerprint scheme and
// the Store interface it implements — the interface lives in service so
// the dependency points downward), and internal/jobs (record decoding
// for verification; store likewise implements jobs.Store). Consumed by
// cmd/locshortd and cmd/locshortctl.
//
// The package is inside the checked-error scope policed by the
// internal/analysis lint suite (DESIGN.md §12): Close/Sync/Flush/Encode
// error results may not be silently discarded — check them or make the
// discard explicit with `_ =`. cmd/locshortlint enforces this in CI.
package store
