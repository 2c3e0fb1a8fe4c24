package graph

import (
	"math"
	"testing"
)

// TestMSTCostSaturates pins the clamp: a degenerate tree of three edges of
// weight 2^62-1 must saturate rather than wrap negative (a negative theta
// would invert the net ordering).
func TestMSTCostSaturates(t *testing.T) {
	const capped = 1<<62 - 1
	tree := []WeightedEdge{
		{U: 0, V: 1, Weight: capped},
		{U: 1, V: 2, Weight: capped},
		{U: 2, V: 3, Weight: capped},
	}
	if got := MSTCost(tree); got != math.MaxInt64 {
		t.Fatalf("MSTCost(three capped weights) = %d, want MaxInt64", got)
	}
	if got := MSTCost([]WeightedEdge{{Weight: 3}, {Weight: 4}}); got != 7 {
		t.Fatalf("MSTCost(3,4) = %d, want 7", got)
	}
	if got := satAdd(math.MinInt64, -1); got != math.MinInt64 {
		t.Fatalf("satAdd(MinInt64, -1) = %d, want MinInt64", got)
	}
}
