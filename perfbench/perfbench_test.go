package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildDaemon builds locshortd from the enclosing checkout.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "locshortd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/locshortd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build locshortd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and requires every request to succeed and every sampled reply to match
// its fresh in-process build.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	env := &runEnv{out: t.TempDir(), daemon: buildDaemon(t), seconds: time.Second}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := env.runOnce(w, 7, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if o.attempted == 0 || o.failed != 0 || o.counts["checked"] == 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed, %d checked",
					w.name, traced, o.attempted, o.failed, o.counts["checked"])
			}
			for _, m := range metricSet(traced) {
				if _, ok := o.metrics[m.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.name)
				}
			}
		}
	}
}

// TestFlippedByteIsCounted takes real replies from a daemon and shows
// that one flipped byte in a binary body, or in a compared JSON field,
// makes the check count the reply as wrong.
func TestFlippedByteIsCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	w, err := workloadByName("warm-hit")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog(w.catalog)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := startDaemons(buildDaemon(t), t.TempDir(), w)
	if err != nil {
		t.Fatal(err)
	}
	defer stopDaemons(ds)
	if err := ingest(ds, cat); err != nil {
		t.Fatal(err)
	}
	if err := prefillDaemons(ds, cat, w, 3); err != nil {
		t.Fatal(err)
	}
	lr := runLoad(ds, cat, w, 3, 300*time.Millisecond)
	ck := newChecker(cat, w)
	if wrong, err := ck.checkAll(lr.samples); wrong != 0 {
		t.Fatalf("unmutated replies: %d wrong: %v", wrong, err)
	}

	bin := 0
	for _, s := range lr.samples {
		if s.req.binary {
			bin++
		}
	}
	if bin == 0 || bin == len(lr.samples) {
		t.Fatalf("%d of %d sampled replies are binary; want both encodings", bin, len(lr.samples))
	}

	var mutated []sampled
	for _, s := range lr.samples {
		body := append([]byte(nil), s.reply.body...)
		if s.req.binary {
			body[len(body)/2] ^= 0x01
		} else {
			i := bytes.Index(body, []byte(`"congestion":`))
			if i < 0 {
				t.Fatalf("JSON reply without congestion: %s", body)
			}
			body[i+len(`"congestion":`)] ^= 0x01 // first digit of the value
		}
		s.reply.body = body
		mutated = append(mutated, s)
	}
	wrong, _ := ck.checkAll(mutated)
	if wrong != len(mutated) {
		t.Fatalf("%d of %d mutated replies counted as wrong", wrong, len(mutated))
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the workloads and
// metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metricJSON
		prog []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
		}
		for i, m := range c.prog {
			if c.json[i] != (metricJSON{m.name, m.unit}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.kind, i, c.json[i], m)
			}
		}
	}
}
