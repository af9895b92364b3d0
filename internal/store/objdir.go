package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"locshort/internal/service"
)

// ObjDir is the S3-style object-directory backend: one file per live
// record, named by content key, grouped into one directory per record kind:
//
//	<dir>/graphs/<%016x>.obj
//	<dir>/partitions/<%016x>.obj
//	<dir>/shortcuts/<%016x>.obj
//	<dir>/jobs/<%016x>.obj
//
// Each object holds exactly the canonical record payload the segment store
// frames, so the two tiers are byte-compatible at the record level and a
// directory of objects maps one-to-one onto object-store keys — the shape
// intended for cold shortcut archival, where records are written once,
// fetched rarely, and individually. Writes go through a same-directory
// temp file, fsync, and atomic rename (then a directory fsync), so an
// object is always either absent or complete; a crash can never leave a
// torn object visible. Deletes remove the graph object before its
// dependent shortcut objects, and Open sweeps the orphans a crash in that
// window leaves behind, along with stranded *.tmp files.
//
// ObjDir implements Compactor: GC removes partition objects no live
// shortcut references plus any unindexed stragglers in its directories.
type ObjDir struct {
	kvCore
	fsys FS
}

const (
	objSuffix    = ".obj"
	objTmpSuffix = ".tmp"
)

// objKindDirs maps record kind bytes to per-kind directory names.
var objKindDirs = map[byte]string{
	kindGraph:     "graphs",
	kindPartition: "partitions",
	kindShortcut:  "shortcuts",
	kindJob:       "jobs",
}

// objScanOrder lists kinds with graphs first so the orphan sweep can check
// shortcut dependencies against an already-populated graph index.
var objScanOrder = []byte{kindGraph, kindPartition, kindJob, kindShortcut}

// OpenObjDir opens (creating if needed) an object-directory backend rooted
// at dir. It rebuilds the live index by listing the kind directories,
// removes stranded temp files, and sweeps objects a crashed delete
// orphaned; swept objects are counted in OpenStats.CorruptSkipped.
func OpenObjDir(dir string, opts Options) (*ObjDir, error) {
	opts = opts.withDefaults()
	o := &ObjDir{fsys: opts.FS}
	o.kvCore = newKVCore(KindObjDir, dir, &dirPayloads{
		dir:    dir,
		fsys:   opts.FS,
		noSync: opts.NoSync,
	})
	for _, kind := range objScanOrder {
		if err := o.fsys.MkdirAll(filepath.Join(dir, objKindDirs[kind]), 0o755); err != nil {
			return nil, fmt.Errorf("store: objdir %s: %w", dir, err)
		}
		if err := o.scanKind(kind); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// scanKind indexes one kind directory, deleting temp files and (for
// shortcuts) objects that fail structural checks or reference a graph that
// no longer exists.
func (o *ObjDir) scanKind(kind byte) error {
	kdir := filepath.Join(o.dir, objKindDirs[kind])
	entries, err := o.fsys.ReadDir(kdir)
	if err != nil {
		return fmt.Errorf("store: objdir %s: %w", o.dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, objTmpSuffix) {
			if err := o.fsys.Remove(filepath.Join(kdir, name)); err != nil {
				return fmt.Errorf("store: objdir %s: sweeping %s: %w", o.dir, name, err)
			}
			continue
		}
		key, ok := parseObjName(name)
		if !ok {
			continue // not ours; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("store: objdir %s: %w", o.dir, err)
		}
		meta := kvMeta{size: info.Size()}
		if kind == kindShortcut {
			payload, err := o.ps.get(kindShortcut, key, meta, false)
			drop := ""
			if err != nil {
				return fmt.Errorf("store: objdir %s: %w", o.dir, err)
			}
			if err := meta.parseDeps(kind, payload); err != nil {
				drop = "undecodable"
			} else if !o.has(kindGraph, meta.graphFP) {
				drop = "orphaned"
			}
			if drop != "" {
				if err := o.fsys.Remove(filepath.Join(kdir, name)); err != nil {
					return fmt.Errorf("store: objdir %s: sweeping %s shortcut %s: %w", o.dir, drop, name, err)
				}
				o.open.CorruptSkipped++
				continue
			}
		}
		o.mu.Lock()
		o.indexPutLocked(kind, key, meta)
		o.mu.Unlock()
	}
	return nil
}

// GC reclaims space: partition objects no live shortcut references are
// dropped from the index and deleted, and any file in the kind directories
// that is not a live record (stranded temps, objects orphaned by a crashed
// delete) is removed. Always safe to run; concurrent readers fall to a
// miss, never a wrong answer.
func (o *ObjDir) GC() (GCStats, error) {
	o.writeMu.Lock()
	defer o.writeMu.Unlock()

	var stats GCStats
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return stats, o.errClosed()
	}
	wanted := make(map[service.Fingerprint]struct{})
	for ik, meta := range o.index {
		if ik.kind == kindShortcut {
			wanted[meta.partFP] = struct{}{}
		}
	}
	for ik := range o.index {
		if ik.kind == kindPartition {
			if _, ok := wanted[ik.key]; !ok {
				delete(o.index, ik)
			}
		}
	}
	for _, meta := range o.index {
		stats.LiveRecords++
		stats.LiveBytes += meta.size
	}
	o.mu.Unlock()

	// With the index settled, every file not backing a live record goes.
	for kind, kdir := range objKindDirs {
		entries, err := o.fsys.ReadDir(filepath.Join(o.dir, kdir))
		if err != nil {
			return stats, fmt.Errorf("store: objdir %s: %w", o.dir, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			live := false
			if key, ok := parseObjName(name); ok {
				live = o.has(kind, key)
			}
			if live {
				continue
			}
			var size int64
			if info, err := e.Info(); err == nil {
				size = info.Size()
			}
			if err := o.fsys.Remove(filepath.Join(o.dir, kdir, name)); err != nil {
				return stats, fmt.Errorf("store: objdir %s: gc %s: %w", o.dir, name, err)
			}
			if strings.HasSuffix(name, objSuffix) {
				stats.DroppedRecords++
			}
			stats.ReclaimedBytes += size
		}
	}
	return stats, nil
}

// parseObjName extracts the record key from an object file name of the form
// "%016x.obj".
func parseObjName(name string) (service.Fingerprint, bool) {
	hex, ok := strings.CutSuffix(name, objSuffix)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	var key uint64
	for i := 0; i < len(hex); i++ {
		c := hex[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		key = key<<4 | d
	}
	return service.Fingerprint(key), true
}

// dirPayloads is ObjDir's payloadStore: one file per record, written via a
// same-directory temp file + fsync + rename so readers and crashes only
// ever see complete objects.
type dirPayloads struct {
	dir    string
	fsys   FS
	noSync bool
}

func (d *dirPayloads) path(kind byte, key service.Fingerprint) string {
	return filepath.Join(d.dir, objKindDirs[kind], fmt.Sprintf("%016x%s", uint64(key), objSuffix))
}

func (d *dirPayloads) put(kind byte, key service.Fingerprint, payload []byte) (kvMeta, error) {
	path := d.path(kind, key)
	tmp := path + objTmpSuffix
	f, err := d.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return kvMeta{}, err
	}
	fail := func(err error) (kvMeta, error) {
		_ = f.Close() // best-effort: the original error must propagate
		d.fsys.Remove(tmp)
		return kvMeta{}, err
	}
	if n, err := f.Write(payload); err != nil {
		return fail(err)
	} else if n != len(payload) {
		return fail(io.ErrShortWrite)
	}
	if !d.noSync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		d.fsys.Remove(tmp)
		return kvMeta{}, err
	}
	if err := d.fsys.Rename(tmp, path); err != nil {
		d.fsys.Remove(tmp)
		return kvMeta{}, err
	}
	if !d.noSync {
		if err := d.fsys.SyncDir(filepath.Dir(path)); err != nil {
			return kvMeta{}, err
		}
	}
	return kvMeta{size: int64(len(payload))}, nil
}

func (d *dirPayloads) get(kind byte, key service.Fingerprint, _ kvMeta, _ bool) ([]byte, error) {
	f, err := d.fsys.OpenFile(d.path(kind, key), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fs.ErrNotExist
		}
		return nil, err
	}
	payload, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return payload, err
}

func (d *dirPayloads) del(kind byte, key service.Fingerprint) error {
	err := d.fsys.Remove(d.path(kind, key))
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

func (d *dirPayloads) footprint(*OpenStats) {}

func (d *dirPayloads) close() error { return nil }

var (
	_ Backend   = (*ObjDir)(nil)
	_ Compactor = (*ObjDir)(nil)
)
