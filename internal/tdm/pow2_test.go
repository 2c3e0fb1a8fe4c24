package tdm

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tdmroute/internal/problem"
)

func TestLegalizeRatioPow2(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{0, 2}, {1.5, 2}, {2, 2}, {2.1, 4}, {4, 4}, {4.0001, 8},
		{7, 8}, {8, 8}, {9, 16}, {1000, 1024},
		{math.NaN(), 2},
	}
	for _, c := range cases {
		if got := LegalPow2.round(c.in); got != c.want {
			t.Errorf("LegalPow2.round(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuickLegalizePow2Properties(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x > 1e15 {
			x = 12345
		}
		r := LegalPow2.round(x)
		if r < 2 || r&(r-1) != 0 {
			return false // must be a power of two >= 2
		}
		if x > 0 && float64(r) < x {
			return false // never round down
		}
		return x <= 2 || float64(r) < 2*x // never overshoot 2x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestAssignPow2LegalAndSchedulable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		in, routes := randomAssignInstance(rng)
		assign, rep, err := Assign(context.Background(), in, routes, Options{Legal: LegalPow2, Epsilon: 1e-3, MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		sol := &problem.Solution{Routes: routes, Assign: assign}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for n := range assign.Ratios {
			for _, r := range assign.Ratios[n] {
				if r&(r-1) != 0 {
					t.Fatalf("trial %d: non-power-of-two ratio %d", trial, r)
				}
			}
		}
		if rep.GTRMax > rep.GTRNoRef {
			t.Errorf("trial %d: pow2 refinement worsened: %d > %d", trial, rep.GTRMax, rep.GTRNoRef)
		}
	}
}

func TestPow2CostsQualityVsEven(t *testing.T) {
	// The restricted domain can only be as good or worse than the even
	// domain (every power of two is even), summed over seeds.
	var even, pow2 int64
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		in, routes := randomAssignInstance(rng)
		_, repE, err := Assign(context.Background(), in, routes, Options{Epsilon: 1e-3, MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		_, repP, err := Assign(context.Background(), in, routes, Options{Legal: LegalPow2, Epsilon: 1e-3, MaxIter: 500})
		if err != nil {
			t.Fatal(err)
		}
		even += repE.GTRMax
		pow2 += repP.GTRMax
	}
	if pow2 < even {
		t.Errorf("power-of-two domain beat the even domain overall: %d < %d", pow2, even)
	}
	t.Logf("GTR totals: even=%d pow2=%d (restriction cost %.1f%%)", even, pow2, 100*float64(pow2-even)/float64(even))
}

func TestRefineEdgePow2Halves(t *testing.T) {
	cand := []candidate{{0, 0, 16}, {1, 0, 8}}
	// margin: plenty — both should halve repeatedly down to 2.
	refineEdgePow2(cand, 10)
	for _, c := range cand {
		if c.t != 2 {
			t.Errorf("candidate at %d, want 2", c.t)
		}
	}
}

func TestRefineEdgePow2RespectsMargin(t *testing.T) {
	// Margin affords exactly one 16->8 halving (cost 1/16).
	cand := []candidate{{0, 0, 16}, {1, 0, 16}}
	refineEdgePow2(cand, 1.0/16+1e-12)
	total := cand[0].t + cand[1].t
	if total != 24 {
		t.Errorf("ratios = %d,%d, want one halved", cand[0].t, cand[1].t)
	}
	for _, c := range cand {
		if c.t&(c.t-1) != 0 {
			t.Errorf("non-power-of-two after refine: %d", c.t)
		}
	}
}
