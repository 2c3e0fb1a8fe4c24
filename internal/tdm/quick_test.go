package tdm

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tdmroute/internal/problem"
)

// Property tests of the TDM-assignment invariants under testing/quick.

func TestQuickLegalizeRatio(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x > 1e15 {
			x = 1e6
		}
		r := LegalEven.round(x)
		if r < 2 || r%2 != 0 {
			return false
		}
		if x > 0 && float64(r) < x {
			return false
		}
		return x <= 2 || float64(r) <= x+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCauchySchwarzPatternIsOptimal(t *testing.T) {
	// For any positive weight vector π, the closed-form pattern minimizes
	// Σ π_n t_n subject to Σ 1/t_n = 1 against random feasible patterns.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		pi := make([]float64, k)
		var s float64
		for i := range pi {
			pi[i] = math.Abs(rng.NormFloat64()) + 1e-3
			s += math.Sqrt(pi[i])
		}
		opt := s * s // Σ π (S/√π) = S Σ √π = S².
		for trial := 0; trial < 10; trial++ {
			w := make([]float64, k)
			var recip float64
			for i := range w {
				w[i] = math.Abs(rng.NormFloat64()) + 1e-3
				recip += 1 / w[i]
			}
			var obj float64
			for i := range w {
				obj += pi[i] * w[i] * recip // scaled so Σ 1/(w*recip) = 1
			}
			if obj < opt-1e-9*opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAssignAlwaysLegal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in, routes := randomAssignInstance(rng)
		assign, rep, err := Assign(context.Background(), in, routes, Options{Epsilon: 1e-3, MaxIter: 300})
		if err != nil {
			return false
		}
		sol := &problem.Solution{Routes: routes, Assign: assign}
		if problem.ValidateSolution(in, sol) != nil {
			return false
		}
		if rep.GTRMax > rep.GTRNoRef {
			return false
		}
		return float64(rep.GTRMax) >= rep.LowerBound-1e-6*math.Max(1, rep.LowerBound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickRefinementNeverBreaksEdgeBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random candidate multiset with a consistent margin.
		k := 1 + rng.Intn(10)
		cand := make([]candidate, k)
		var recip float64
		for i := range cand {
			r := int64(2 + 2*rng.Intn(12))
			cand[i] = candidate{net: i, pos: 0, t: r}
			recip += 1 / float64(r)
		}
		if recip > 1 {
			return true // infeasible start: not a refinement input
		}
		xi := 1 - DefaultTol - recip
		refineEdge(cand, xi)
		var after float64
		for _, c := range cand {
			if c.t < 2 || c.t%2 != 0 {
				return false
			}
			after += 1 / float64(c.t)
		}
		return after <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickGroupWindowsFiniteStats(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gw := newGroupWindows(3, 1+rng.Intn(6))
		for i := 0; i < 200; i++ {
			g := rng.Intn(3)
			x := rng.Float64()
			z := gw.zscore(g, x)
			if math.IsNaN(z) || math.IsInf(z, 0) {
				return false
			}
			gw.push(g, x)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
