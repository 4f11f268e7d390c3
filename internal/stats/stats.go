// Package stats holds the latency percentile rule every harness and
// benchmark reports with, so their figures compare like for like.
package stats

import (
	"math"
	"slices"
	"time"
)

// Percentile returns the nearest-rank p-quantile of ds (0 < p <= 1): the
// smallest sample with at least a fraction p of the samples at or below
// it, sorted[ceil(p·n)−1]. It returns 0 for no samples and leaves ds
// unchanged.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
