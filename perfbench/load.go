package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"locshort/internal/wire"
)

// client is one closed-loop connection; it keeps one keep-alive
// connection per node.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one answered request.
type reply struct {
	status  int
	body    []byte
	buildNs int64 // X-Locshort-Build-Ns of a binary reply
}

func (c *client) do(ctx context.Context, base string, body []byte, binary bool) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/shortcuts", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, body: b}
	if binary && resp.StatusCode == http.StatusOK {
		r.buildNs, err = strconv.ParseInt(resp.Header.Get(wire.HeaderBuildNs), 10, 64)
		if err != nil {
			return r, fmt.Errorf("binary reply without a valid %s header", wire.HeaderBuildNs)
		}
	}
	return r, nil
}

// sampled is a reply kept for the correctness check.
type sampled struct {
	req   request
	reply reply
}

// loadResult is what one measured window produced.
type loadResult struct {
	wall     time.Duration
	jsonMs   []float64 // latency of each completed JSON request
	binMs    []float64
	jsonWin  []int // slice of the window each latency ended in
	binWin   []int
	attempts int
	failures int // transport errors and non-200 replies
	samples  []sampled
	firstErr error
}

// window is the slice length the latency medians are taken over.
const window = time.Second

// sampleEvery and maxSamples pick the deterministic sample of replies
// the correctness check compares against fresh in-process builds: the
// first two of every sampleEvery requests, one of each encoding.
const (
	sampleEvery = 16
	maxSamples  = 64 // per connection
)

// runLoad drives the closed loop for d and returns the latencies. Each
// connection walks its own seeded stream.
func runLoad(ds []*daemon, cat []*catalogGraph, w *workload, runSeed int64, d time.Duration) *loadResult {
	results := make([]*loadResult, w.conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for ci := 0; ci < w.conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &loadResult{}
			results[ci] = res
			cl := newClient()
			defer cl.close()
			s := newStream(w, runSeed, ci)
			for i := 0; time.Now().Before(deadline); i++ {
				r := s.next()
				var body []byte
				if r.binary {
					body = binaryBody(cat, w, r)
				} else {
					body = jsonBody(cat, w, r)
				}
				t0 := time.Now()
				rep, err := cl.do(context.Background(), ds[r.node].base, body, r.binary)
				lat := time.Since(t0)
				res.attempts++
				if err == nil && rep.status != http.StatusOK {
					err = fmt.Errorf("POST /v1/shortcuts on %s: %d: %.200s", ds[r.node].addr, rep.status, rep.body)
				}
				if err != nil {
					res.failures++
					if res.firstErr == nil {
						res.firstErr = err
					}
					continue
				}
				ms := float64(lat.Nanoseconds()) / 1e6
				win := int(time.Since(start) / window)
				if r.binary {
					res.binMs = append(res.binMs, ms)
					res.binWin = append(res.binWin, win)
				} else {
					res.jsonMs = append(res.jsonMs, ms)
					res.jsonWin = append(res.jsonWin, win)
				}
				if i%sampleEvery < 2 && len(res.samples) < maxSamples {
					res.samples = append(res.samples, sampled{req: r, reply: rep})
				}
			}
		}(ci)
	}
	wg.Wait()
	out := &loadResult{wall: time.Since(start)}
	for _, r := range results {
		out.jsonMs = append(out.jsonMs, r.jsonMs...)
		out.binMs = append(out.binMs, r.binMs...)
		out.jsonWin = append(out.jsonWin, r.jsonWin...)
		out.binWin = append(out.binWin, r.binWin...)
		out.attempts += r.attempts
		out.failures += r.failures
		out.samples = append(out.samples, r.samples...)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// prefillDaemons requests every key of the workload's key space in both
// encodings through the first node, so every key is built, measured and
// persisted (on its owner, in a cluster) before the window opens.
func prefillDaemons(ds []*daemon, cat []*catalogGraph, w *workload, runSeed int64) error {
	cl := newClient()
	defer cl.close()
	for _, id := range allKeys(w, runSeed) {
		r := request{graph: id.graph, seed: id.seed, opt: id.opt}
		for _, bin := range []bool{false, true} {
			r.binary = bin
			body := jsonBody(cat, w, r)
			if bin {
				body = binaryBody(cat, w, r)
			}
			rep, err := cl.do(context.Background(), ds[0].base, body, bin)
			if err != nil {
				return err
			}
			if rep.status != http.StatusOK {
				return fmt.Errorf("prefill: %d: %.200s", rep.status, rep.body)
			}
		}
	}
	return awaitPersists(ds, 30*time.Second)
}
