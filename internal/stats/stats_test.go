package stats

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.01, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.95, 10}, {0.99, 10}, {1, 10}} {
		if got := Percentile(ds, c.p); got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if ds[0] != 5 {
		t.Fatal("Percentile reordered its input")
	}
	if Percentile(nil, 0.99) != 0 {
		t.Fatal("no samples must read 0")
	}
}
