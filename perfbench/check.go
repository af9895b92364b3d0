package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// reference is a fresh in-process construction of one key: what every
// reply for that key must agree with.
type reference struct {
	r   *resolved
	res *shortcut.Result
	q   shortcut.Quality
}

type checker struct {
	cat  []*catalogGraph
	w    *workload
	refs map[keyID]*reference
}

func newChecker(cat []*catalogGraph, w *workload) *checker {
	return &checker{cat: cat, w: w, refs: make(map[keyID]*reference)}
}

func (c *checker) reference(id keyID) (*reference, error) {
	if ref, ok := c.refs[id]; ok {
		return ref, nil
	}
	r, err := resolve(c.cat, c.w, id)
	if err != nil {
		return nil, err
	}
	res, err := shortcut.Build(r.cg.g, r.parts, r.opts)
	if err != nil {
		return nil, err
	}
	ref := &reference{r: r, res: res, q: shortcut.Measure(res.Shortcut)}
	c.refs[id] = ref
	return ref, nil
}

// jsonReply is the part of a JSON /v1/shortcuts reply the check compares.
type jsonReply struct {
	Shortcut     string `json:"shortcut"`
	Delta        int    `json:"delta"`
	Congestion   int    `json:"congestion"`
	Dilation     int    `json:"dilation"`
	MaxBlocks    int    `json:"max_blocks"`
	CoveredParts int    `json:"covered_parts"`
}

// check compares one reply with the fresh construction: a JSON reply must
// name the same key and report the same delta' and quality; a binary
// reply must be byte-equal to the canonical record payload rendered with
// the build cost the server reported.
func (c *checker) check(req request, rep reply) error {
	ref, err := c.reference(req.key())
	if err != nil {
		return fmt.Errorf("reference build: %w", err)
	}
	if req.binary {
		want := store.EncodeShortcutRecordPayload(ref.r.cg.fp, ref.r.parts, ref.r.opts, ref.res,
			time.Duration(rep.buildNs))
		if !bytes.Equal(rep.body, want) {
			return fmt.Errorf("binary reply for %s differs from the canonical payload (%d vs %d bytes)",
				ref.r.key, len(rep.body), len(want))
		}
		return nil
	}
	var got jsonReply
	if err := json.Unmarshal(rep.body, &got); err != nil {
		return fmt.Errorf("JSON reply for %s: %w", ref.r.key, err)
	}
	want := jsonReply{
		Shortcut:     ref.r.key.String(),
		Delta:        ref.res.Delta,
		Congestion:   ref.q.Congestion,
		Dilation:     ref.q.Dilation,
		MaxBlocks:    ref.q.MaxBlocks,
		CoveredParts: ref.q.CoveredParts,
	}
	if got != want {
		return fmt.Errorf("JSON reply %+v, want %+v", got, want)
	}
	return nil
}

// checkAll verifies every sampled reply and returns how many disagree.
func (c *checker) checkAll(samples []sampled) (wrong int, firstErr error) {
	for _, s := range samples {
		if err := c.check(s.req, s.reply); err != nil {
			wrong++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return wrong, firstErr
}
