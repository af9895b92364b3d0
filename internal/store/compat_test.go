package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// compatDir holds a segment directory written by an earlier build of this
// package, together with records.txt, the Records() listing that build
// reported for it. Never regenerate it with the current code: its whole
// point is to pin the on-disk format against an older writer.
const compatDir = "testdata/compat"

// compatSegmentBytes is small enough that the compat workload seals
// several segments.
const compatSegmentBytes = 1 << 10

// compatShortcut is one shortcut the compat workload persists.
type compatShortcut struct {
	g     *graph.Graph
	parts *partition.Partition
	res   *shortcut.Result
	key   service.Fingerprint
	gfp   service.Fingerprint
	bt    time.Duration
}

func compatFixture(t *testing.T, spec, partSpec string, seed int64) *compatShortcut {
	t.Helper()
	g, p, res := buildFixture(t, spec, partSpec, seed)
	gfp := service.FingerprintGraph(g)
	return &compatShortcut{
		g: g, parts: p, res: res, gfp: gfp,
		key: service.ShortcutKey(gfp, p, shortcut.Options{}),
		bt:  time.Duration(seed) * time.Millisecond,
	}
}

func compatJob(t *testing.T, id uint64, state jobs.State) []byte {
	t.Helper()
	payload, err := jobs.EncodeRecord(jobs.Record{
		ID: jobs.ID(id), Kind: "shortcut", Request: []byte(`{"graph":"x"}`),
		State: state, CreatedNs: 1_700_000_000_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// writeCompatWorkload runs the fixed operation sequence the compat
// directory was written with: graphs, a shared partition, shortcuts, a
// superseded job, a graph payload put verbatim, and a tombstoned graph
// with its shortcut. It returns the shortcuts that stay live.
func writeCompatWorkload(t *testing.T, dir string) []*compatShortcut {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: compatSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	a := compatFixture(t, "grid:6x6", "blobs:4", 3)
	b := compatFixture(t, "cycle:20", "blobs:3", 4)
	dead := compatFixture(t, "wheel:12", "blobs:2", 5)
	for _, fx := range []*compatShortcut{a, b, dead} {
		if err := s.PutGraph(fx.gfp, fx.g); err != nil {
			t.Fatal(err)
		}
		if err := s.PutShortcut(fx.key, fx.gfp, fx.parts, shortcut.Options{}, fx.res, fx.bt); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutJob(7, compatJob(t, 7, jobs.Queued)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(7, compatJob(t, 7, jobs.Done)); err != nil {
		t.Fatal(err)
	}
	torus, _, err := cli.ParseGraph("torus:4x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutGraphPayload(service.FingerprintGraph(torus), EncodeGraphPayload(torus)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteGraph(dead.gfp); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return []*compatShortcut{a, b}
}

// renderRecords renders a Records listing one record per line, with every
// field that locates a record on disk.
func renderRecords(recs []RecordInfo) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%s %s seg=%d off=%d bytes=%d graph=%s partition=%s\n",
			r.Kind, r.Key, r.Segment, r.Offset, r.Bytes, r.GraphFP, r.PartitionFP)
	}
	return sb.String()
}

// copySegments copies the segment files of src into dst.
func copySegments(t *testing.T, src, dst string) {
	t.Helper()
	for _, path := range segFiles(t, src) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentFormatCompat opens a segment directory an earlier build wrote
// and checks that this build reads it identically and writes the same
// operation sequence to byte-identical segment files.
func TestSegmentFormatCompat(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(compatDir, "records.txt"))
	if err != nil {
		t.Fatal(err)
	}
	old := segFiles(t, compatDir)
	if len(old) < 3 {
		t.Fatalf("compat directory holds %d segments, want at least two sealed ones", len(old))
	}

	fresh := t.TempDir()
	live := writeCompatWorkload(t, fresh)
	written := segFiles(t, fresh)
	if len(written) != len(old) {
		t.Fatalf("workload wrote %d segments, the older build wrote %d", len(written), len(old))
	}
	for i := range old {
		a, err := os.ReadFile(old[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(written[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the older build's bytes", filepath.Base(old[i]))
		}
	}

	// Open a copy: Open may repair or start a segment, and the testdata
	// must stay as the older build left it.
	dir := t.TempDir()
	copySegments(t, compatDir, dir)
	for _, mmap := range []bool{true, false} {
		s, err := Open(dir, Options{NoSync: true, NoMmap: !mmap, SegmentBytes: compatSegmentBytes})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRecords(s.Records()); got != string(want) {
			t.Errorf("mmap=%v: Records differ from the older build's\ngot:\n%swant:\n%s", mmap, got, want)
		}
		if problems := s.Verify(); len(problems) != 0 {
			t.Errorf("mmap=%v: verify: %v", mmap, problems)
		}
		for _, fx := range live {
			res, bt, ok, err := s.GetShortcut(fx.key, fx.g, fx.parts)
			if err != nil || !ok {
				t.Fatalf("mmap=%v: GetShortcut %s: ok=%v err=%v", mmap, fx.key, ok, err)
			}
			got := EncodeShortcutRecordPayload(fx.gfp, fx.parts, shortcut.Options{}, res, bt)
			stored, ok, err := s.ShortcutPayload(fx.key)
			if err != nil || !ok || !bytes.Equal(got, stored) {
				t.Errorf("mmap=%v: shortcut %s does not decode back to its stored payload", mmap, fx.key)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
