package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of vs by linear interpolation
// between closest ranks; 0 for no values.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[lo] + (vs[lo+1]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func quartiles(vs []float64) (q1, med, q3 float64) {
	return percentile(vs, 0.25), percentile(vs, 0.5), percentile(vs, 0.75)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func durMedian(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

// ratio is n/d, or 0 when nothing was attempted.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// windowedMedian is the median of the per-slice medians of vs, where
// win[i] is the one-second slice value i ended in, so a few slices that
// another tenant of the host slowed down do not move it. Slices are
// merged until each holds at least minSliceSamples values.
func windowedMedian(vs []float64, win []int) float64 {
	var meds []float64
	for _, s := range groupSlices(vs, win, minSliceSamples) {
		meds = append(meds, median(s))
	}
	return median(meds)
}

const minSliceSamples = 200

// groupSlices buckets values by slice, merging consecutive slices until
// each group holds at least least values (the last group absorbs any
// remainder).
func groupSlices(vs []float64, win []int, least int) [][]float64 {
	last := 0
	for _, w := range win {
		last = max(last, w)
	}
	per := make([][]float64, last+1)
	for i, v := range vs {
		per[win[i]] = append(per[win[i]], v)
	}
	var out [][]float64
	var cur []float64
	for _, p := range per {
		cur = append(cur, p...)
		if len(cur) >= least {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(out) == 0 {
		return [][]float64{cur}
	}
	out[len(out)-1] = append(out[len(out)-1], cur...)
	return out
}
