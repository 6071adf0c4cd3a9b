package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		tier, n, size, gap int
		loss               float64
		ok                 bool
	}{
		{0, 1000, 64, 20, 0, true},
		{2, 1, 0, 0, 1, true},
		{1, maxMessages, maxSize, maxGapUS, 0.01, true},
		{-1, 1000, 64, 20, 0, false},
		{3, 1000, 64, 20, 0, false},
		{0, 0, 64, 20, 0, false},
		{0, -5, 64, 20, 0, false},
		{0, maxMessages + 1, 64, 20, 0, false},
		{0, 1000, -1, 20, 0, false},
		{0, 1000, maxSize + 1, 20, 0, false},
		{0, 1000, 64, -1, 0, false},
		{0, 1000, 64, maxGapUS + 1, 0, false},
		{0, 1000, 64, 20, -0.1, false},
		{0, 1000, 64, 20, 1.5, false},
		{0, 1000, 64, 20, math.NaN(), false},
		{0, 1000, 64, 20, math.Inf(1), false},
	} {
		err := checkFlags(tc.tier, tc.n, tc.size, tc.gap, tc.loss)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(tier=%d n=%d size=%d gap=%d loss=%v) = %v, want ok %v",
				tc.tier, tc.n, tc.size, tc.gap, tc.loss, err, tc.ok)
		}
	}
}
