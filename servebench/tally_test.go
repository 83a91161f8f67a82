package main

import (
	"math"
	"testing"
)

func TestHistQuantileTracksExactQuantile(t *testing.T) {
	h := newHist()
	for us := int64(1); us <= 1000; us++ {
		h.add(us * 1000)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}, {1, 1000e3}} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 0.003*c.want {
			t.Errorf("quantile(%v) = %v, want %v within 0.3%%", c.q, got, c.want)
		}
	}
	if got := newHist().quantile(0.5); got != 0 {
		t.Errorf("empty histogram: quantile = %v, want 0", got)
	}
}
