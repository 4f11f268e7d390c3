package main

import (
	"math"
	"sort"
	"time"
)

// Summary is a latency distribution reduced to what the report needs:
// the median, one tail percentile, and the evidence behind the tail —
// how many samples there were and how many lie beyond the percentile.
type Summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50_ms"`
	Tail   float64 `json:"tail_ms"`
	TailQ  float64 `json:"tail_q"`
	Beyond int     `json:"beyond"`
	Mean   float64 `json:"mean_ms"`
	Max    float64 `json:"max_ms"`
}

// quantile returns the q-quantile of sorted (nearest-rank: the smallest
// sample with at least q·n samples at or below it).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly greater than v.
func beyond(sorted []float64, v float64) int {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return len(sorted) - i
}

// summarize reduces samples (milliseconds) to a Summary whose tail is the
// q-quantile. A tail with fewer than minBeyond samples past it is not
// evidence of anything; Valid reports that.
func summarize(ms []float64, q float64) Summary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := Summary{N: len(s), TailQ: q}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	out.Tail = quantile(s, q)
	out.Beyond = beyond(s, out.Tail)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	out.Mean = sum / float64(len(s))
	out.Max = s[len(s)-1]
	return out
}

// minBeyond is how many samples must lie past a reported percentile for
// the percentile to mean something.
const minBeyond = 10

// Valid reports whether the tail percentile has enough samples past it.
func (s Summary) Valid() bool { return s.Beyond >= minBeyond }

// medianOf returns the median of xs (the mean of the middle pair for an
// even count); it does not reorder xs.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowedTail splits samples, in due-time order, into consecutive
// windows of at least perWindow samples and returns the median of the
// windows' q-quantiles (one window: its quantile). A single stall moves
// one window's tail, not the run's.
func windowedTail(res []opResult, q float64, perWindow int) float64 {
	sorted := append([]opResult(nil), res...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].from < sorted[j].from })
	var ok []float64
	for _, x := range sorted {
		if x.err == nil {
			ok = append(ok, x.latencyMS())
		}
	}
	k := max(1, len(ok)/perWindow)
	var tails []float64
	for w := 0; w < k; w++ {
		part := append([]float64(nil), ok[w*len(ok)/k:(w+1)*len(ok)/k]...)
		sort.Float64s(part)
		tails = append(tails, quantile(part, q))
	}
	return medianOf(tails)
}
