package tdm

import (
	"math"
	"testing"

	"tdmroute/internal/problem"
)

// TestLegalizeRatioSaturates is the regression test for the int64 overflow:
// relaxed ratios beyond the int64 range (the LR assigns such values to
// ungrouped nets whose π is floored near zero) must saturate at the largest
// even int64 instead of converting to a negative number.
func TestLegalizeRatioSaturates(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{math.NaN(), 2},
		{math.Inf(-1), 2},
		{-5, 2},
		{0, 2},
		{2, 2},
		{2.1, 4},
		{7, 8},
		{8, 8},
		{1e15, 1000000000000000},
		{1e15 + 1, 1000000000000002},
		{1e18, 1000000000000000000},
		{9.2e18, 9200000000000000000},
		{float64(math.MaxInt64), problem.MaxEvenRatio},
		{1e19, problem.MaxEvenRatio},
		{1e300, problem.MaxEvenRatio},
		{math.Inf(1), problem.MaxEvenRatio},
	}
	for _, c := range cases {
		if got := LegalEven.round(c.in); got != c.want {
			t.Errorf("LegalEven.round(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLegalizeRatioPow2Saturates(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{math.NaN(), 2},
		{math.Inf(-1), 2},
		{2, 2},
		{3, 4},
		{17, 32},
		{1 << 40, 1 << 40},
		{float64(problem.MaxPow2Ratio), problem.MaxPow2Ratio},
		{1e300, problem.MaxPow2Ratio},
		{math.Inf(1), problem.MaxPow2Ratio},
	}
	for _, c := range cases {
		if got := LegalPow2.round(c.in); got != c.want {
			t.Errorf("LegalPow2.round(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestLegalizeNeverIllegal sweeps adversarial relaxed values through both
// legalizers and asserts that no odd, negative, or sub-2 ratio can escape.
func TestLegalizeNeverIllegal(t *testing.T) {
	adversarial := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		-1e300, -2, 0, 1, 2, 2.0000001, 3,
		1e9, 1e18, 9.22e18, 9.3e18, 1e19, 1e300,
		float64(math.MaxInt64), float64(math.MaxInt64) * 2,
	}
	for _, v := range adversarial {
		for name, r := range map[string]int64{
			"LegalEven.round": LegalEven.round(v),
			"LegalPow2.round": LegalPow2.round(v),
		} {
			if r < 2 {
				t.Errorf("%s(%g) = %d < 2", name, v, r)
			}
			if r%2 != 0 {
				t.Errorf("%s(%g) = %d is odd", name, v, r)
			}
		}
		if p := LegalPow2.round(v); p&(p-1) != 0 {
			t.Errorf("LegalPow2.round(%g) = %d is not a power of two", v, p)
		}
	}
}

// overflowInstance is one net routed over the single edge of a 2-FPGA
// system, the minimal carrier for a relaxed ratio.
func overflowInstance() (*problem.Instance, problem.Routing) {
	in := &problem.Instance{
		Name:   "overflow",
		Nets:   []problem.Net{{Terminals: []int{0, 1}}},
		Groups: []problem.Group{{Nets: []int{0}}},
	}
	in.G = ringGraph(2)
	in.RebuildNetGroups()
	// Route the net over edge 0 only.
	return in, problem.Routing{{0}}
}

// TestLegalizeOverflowSolutionValid runs the full legalization on relaxed
// assignments containing 1e300, +Inf, and NaN and asserts the resulting
// solutions pass ValidateSolution (every ratio a positive even integer,
// per-edge reciprocal sums <= 1).
func TestLegalizeOverflowSolutionValid(t *testing.T) {
	for _, v := range []float64{1e300, math.Inf(1), math.NaN()} {
		in, routes := overflowInstance()
		relaxed := [][]float64{{v}}
		for name, ratios := range map[string][][]int64{
			"LegalEven": Legalize(relaxed, LegalEven),
			"LegalPow2": Legalize(relaxed, LegalPow2),
		} {
			sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: ratios}}
			if err := problem.ValidateSolution(in, sol); err != nil {
				t.Errorf("%s(%g): invalid solution: %v", name, v, err)
			}
		}
	}
}

// TestCompactUngroupedNearZeroBudget drives compactUngrouped into the regime
// where the residual budget is denormal-small and the common ratio formerly
// overflowed int64: the rewritten ratios must stay legal.
func TestCompactUngroupedNearZeroBudget(t *testing.T) {
	for _, legal := range []Legalizer{LegalEven, LegalPow2} {
		in, routes := overflowInstance()
		in.Groups = nil
		in.RebuildNetGroups() // net 0 is now ungrouped
		ratios := [][]int64{{2}}
		// tol chosen so budget = 1 - tol = 1e-300 and u/budget = 1e300.
		compactUngrouped(in, routes, ratios, 1-1e-300, legal)
		r := ratios[0][0]
		if r < 2 || r%2 != 0 {
			t.Errorf("legal=%v: compacted ratio %d is illegal", legal, r)
		}
		sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: ratios}}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Errorf("legal=%v: %v", legal, err)
		}
	}
}

// TestRefineEdgeHugeRatios drives refineEdge into the suffix fallback with a
// block of enormous equal ratios: per-element margin underflows toward zero,
// the quotient exceeds the int range, and the former int conversion turned
// the affordable count negative (skipping the refinement entirely).
func TestRefineEdgeHugeRatios(t *testing.T) {
	const huge = int64(1) << 62
	cand := []candidate{
		{net: 0, pos: 0, t: huge},
		{net: 1, pos: 0, t: huge},
	}
	refineEdge(cand, 0.5)
	for i, c := range cand {
		if c.t >= huge {
			t.Errorf("candidate %d not refined: %d", i, c.t)
		}
		if c.t < 2 || c.t%2 != 0 {
			t.Errorf("candidate %d: illegal ratio %d", i, c.t)
		}
	}
}

// TestLegalizeAllocs pins the slab layout in both domains: a legalized
// assignment is two allocations (the row headers and one backing slab)
// whatever the number of nets.
func TestLegalizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for name, legal := range map[string]Legalizer{"LegalEven": LegalEven, "LegalPow2": LegalPow2} {
		var counts []float64
		for _, nets := range []int{100, 10000} {
			relaxed := make([][]float64, nets)
			for n := range relaxed {
				relaxed[n] = make([]float64, 1+n%4)
				for k := range relaxed[n] {
					relaxed[n][k] = 2.5 + float64(k)
				}
			}
			counts = append(counts, testing.AllocsPerRun(20, func() { Legalize(relaxed, legal) }))
		}
		if counts[0] != counts[1] || counts[1] > 2 {
			t.Errorf("%s allocates %v objects at 100 and 10000 nets, want the same count, at most 2", name, counts)
		}
	}
}

// TestLegalizeRowsCapacityClamped appends to one legalized row and requires
// the next row, carved from the same slab, to be unchanged.
func TestLegalizeRowsCapacityClamped(t *testing.T) {
	relaxed := [][]float64{{3, 5}, {7, 9, 11}}
	for name, out := range map[string][][]int64{
		"LegalEven": Legalize(relaxed, LegalEven), "LegalPow2": Legalize(relaxed, LegalPow2),
	} {
		next := append([]int64(nil), out[1]...)
		out[0] = append(out[0], 1<<40)
		for k, v := range next {
			if out[1][k] != v {
				t.Fatalf("%s: append to row 0 overwrote row 1: %v, want %v", name, out[1], next)
			}
		}
	}
}
