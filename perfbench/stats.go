package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// summary describes one timing distribution the way the benchmark
// reports every timing: the median, the highest percentile that still
// has at least ten samples beyond it, and the sample count.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"` // 0 when fewer than 20 samples
	Tail    float64 `json:"tail"`
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: quantile(s, 0.5)}
	for _, p := range tailLadder {
		if float64(len(s))*(100-p)/100 >= 10-1e-9 {
			out.TailPct = p
			out.Tail = quantile(s, p/100)
			break
		}
	}
	return out
}

// quantile interpolates the q-quantile (0..1) of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts one phase's operations. An operation that errors, is
// refused, or returns a wrong answer is failed.
type tally struct {
	name             string
	sent, ok, failed atomic.Int64
}

func (t *tally) record(ok bool) {
	t.sent.Add(1)
	if ok {
		t.ok.Add(1)
	} else {
		t.failed.Add(1)
	}
}

type phaseCount struct {
	Name      string `json:"name"`
	Sent      int64  `json:"sent"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
}

func (t *tally) count() phaseCount {
	return phaseCount{Name: t.name, Sent: t.sent.Load(), Succeeded: t.ok.Load(), Failed: t.failed.Load()}
}

// quantileOf is the q-quantile of unsorted samples.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
