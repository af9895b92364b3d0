package store

import (
	"io/fs"
	"sync"

	"locshort/internal/service"
)

// Mem is the ephemeral in-memory backend: the full Backend contract over
// plain maps, with nothing on disk. It serves two roles — `-store=mem` for
// a locshortd that wants store semantics (dedup, tombstones, peer
// inventory) without a data directory, and a fast substrate for tests. It
// stores the same canonical record payloads as the durable backends and
// decodes them on read, so content verification is byte-for-byte identical;
// only durability differs (everything is lost at Close/process exit).
//
// Mem reclaims deleted payloads eagerly and therefore does not implement
// Compactor.
type Mem struct {
	kvCore
}

// OpenMem returns a fresh, empty in-memory backend.
func OpenMem() *Mem {
	m := &Mem{}
	m.kvCore = newKVCore(KindMem, "", &memPayloads{m: make(map[indexKey][]byte)})
	return m
}

// memPayloads is Mem's payloadStore: a mutex-guarded map of defensive
// copies. get returns the stored slice directly; callers must treat record
// payloads as read-only (the Backend contract already demands this for the
// zero-copy segment store).
type memPayloads struct {
	mu sync.RWMutex
	m  map[indexKey][]byte
}

func (p *memPayloads) put(kind byte, key service.Fingerprint, payload []byte) (kvMeta, error) {
	cp := append([]byte(nil), payload...)
	p.mu.Lock()
	p.m[indexKey{kind: kind, key: key}] = cp
	p.mu.Unlock()
	return kvMeta{size: int64(len(cp))}, nil
}

func (p *memPayloads) get(kind byte, key service.Fingerprint, _ kvMeta, _ bool) ([]byte, error) {
	p.mu.RLock()
	payload, ok := p.m[indexKey{kind: kind, key: key}]
	p.mu.RUnlock()
	if !ok {
		return nil, fs.ErrNotExist
	}
	return payload, nil
}

func (p *memPayloads) del(kind byte, key service.Fingerprint) error {
	p.mu.Lock()
	delete(p.m, indexKey{kind: kind, key: key})
	p.mu.Unlock()
	return nil
}

func (p *memPayloads) footprint(*OpenStats) {}

func (p *memPayloads) close() error { return nil }

var _ Backend = (*Mem)(nil)
