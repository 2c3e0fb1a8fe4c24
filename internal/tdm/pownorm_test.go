package tdm

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"tdmroute/internal/par"
	"tdmroute/internal/stats"
)

// samePow reports whether powNorm(x, k) and math.Pow(x, k) have the same
// bits, NaN payload and zero sign included.
func samePow(x, k float64) bool {
	return math.Float64bits(powNorm(x, k)) == math.Float64bits(math.Pow(x, k))
}

// TestPowNormMatchesMathPow compares powNorm with math.Pow bit for bit on
// 10^7 seeded samples of its domain, x ∈ [2^-64, 1] and k ∈ [1, 4), drawn
// where the two could first part: x near 1 and near the 2^-64 edge, integer
// exponents, and exponents around i + 1/2 where the fraction shift flips.
// Arguments outside the domain must take the math.Pow fallback.
func TestPowNormMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	xs := []func() float64{
		func() float64 { return 1 - rng.Float64() }, // uniform on (0, 1]
		func() float64 { return 1 - 0x1p-30*rng.Float64() },
		func() float64 { return math.Exp2(-64 * rng.Float64()) },  // every exponent of the domain
		func() float64 { return 0x1p-64 * (0.5 + rng.Float64()) }, // both sides of 2^-64
	}
	ks := []func() float64{
		func() float64 { return 1 + 3*rng.Float64() },
		func() float64 { return float64(1 + rng.Intn(3)) },
		func() float64 {
			k := float64(1+rng.Intn(3)) + 0.5
			switch rng.Intn(3) {
			case 0:
				return math.Nextafter(k, 0)
			case 1:
				return math.Nextafter(k, 4)
			}
			return k
		},
	}
	samples := 10_000_000
	if testing.Short() {
		samples = 1_000_000
	}
	for i := 0; i < samples; i++ {
		x, k := xs[i%len(xs)](), ks[(i/len(xs))%len(ks)]()
		if !samePow(x, k) {
			t.Fatalf("powNorm(%v, %v) = %v, math.Pow = %v", x, k, powNorm(x, k), math.Pow(x, k))
		}
	}

	edges := []float64{0x1p-64, math.Nextafter(0x1p-64, 0), math.Nextafter(0x1p-64, 1), 1, math.Nextafter(1, 0)}
	for _, x := range edges {
		for _, k := range []float64{1, 1.5, 2, 2.5, 3, 3.5, math.Nextafter(4, 0)} {
			if !samePow(x, k) {
				t.Errorf("powNorm(%v, %v) = %v, math.Pow = %v", x, k, powNorm(x, k), math.Pow(x, k))
			}
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	outside := [][2]float64{
		{0, 2}, {math.Copysign(0, -1), 2}, {1.5, 2}, {math.Nextafter(1, 2), 3}, {7, 3.5},
		{nan, 2}, {0.5, nan}, {inf, 2}, {-inf, 2}, {0.5, inf}, {0.5, -inf},
		{0.5, 0.75}, {0.5, 0.5}, {0.5, 0}, {0.5, math.Nextafter(1, 0)},
		{0.5, -1}, {0.5, -2.5}, {-0.5, 2}, {-0.5, 2.5},
		{0.5, 4}, {0.5, 5.5}, {0x1p-64, 16}, {1e-300, 3},
	}
	for _, a := range outside {
		if !samePow(a[0], a[1]) {
			t.Errorf("powNorm(%v, %v) = %v, math.Pow = %v", a[0], a[1], powNorm(a[0], a[1]), math.Pow(a[0], a[1]))
		}
	}
}

func FuzzPowNorm(f *testing.F) {
	for _, a := range [][2]float64{
		{0.5, 2.5}, {0x1p-64, math.Nextafter(3.5, 4)}, {1, 3}, {0.999, 1.5}, {0, 2}, {2, 2}, {0.5, 4}, {0.5, -1},
	} {
		f.Add(a[0], a[1])
	}
	f.Fuzz(func(t *testing.T, x, k float64) {
		// Arbitrary pairs rarely land in the domain, so each is also folded
		// into it: x into [0, 1), k into [1, 4).
		for _, a := range [][2]float64{{x, k}, {math.Abs(math.Mod(x, 1)), 1 + math.Abs(math.Mod(k, 3))}} {
			if !samePow(a[0], a[1]) {
				t.Fatalf("powNorm(%v, %v) = %v, math.Pow = %v", a[0], a[1], powNorm(a[0], a[1]), math.Pow(a[0], a[1]))
			}
		}
	})
}

// updateMultipliersMathPow is updateMultipliers with math.Pow at the call
// site instead of powNorm: the reference the real update must match bit for
// bit.
func updateMultipliersMathPow(s *lrState, z float64) {
	if z <= 0 {
		return
	}
	k0 := (DefaultAlpha-1)*stats.Sigmoid(0) + 1
	partial := s.scratch(par.NumChunks(len(s.lambda)))
	par.For(len(s.lambda), s.opt.Workers, len(s.lambda)*lambdaUpdateWork, func(chunk, start, end int) {
		var sum float64
		for gi := start; gi < end; gi++ {
			norm := s.grpTDM[gi] / z
			lg := s.lambda[gi]
			//lint:ignore floateq the floor is an exact-assignment sentinel, as in updateMultipliers
			if lg == minLambda && norm <= 1 {
				s.windows.push(gi, norm)
				sum += minLambda
				continue
			}
			x := s.windows.zscore(gi, norm)
			k := k0
			if x != 0 {
				k = (DefaultAlpha-1)*stats.Sigmoid(DefaultBeta*x) + 1
			}
			s.windows.push(gi, norm)
			lg *= math.Pow(norm, k)
			if lg < minLambda {
				lg = minLambda
			}
			s.lambda[gi] = lg
			sum += lg
		}
		partial[chunk] = sum
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	if total > 0 {
		inv := 1 / total
		par.For(len(s.lambda), s.opt.Workers, len(s.lambda), func(_, start, end int) {
			for gi := start; gi < end; gi++ {
				s.lambda[gi] *= inv
			}
		})
	}
}

// multiplierState builds the part of an lrState the multiplier update
// reads and writes: g groups with seeded multipliers, a fraction floorFrac
// of them at the minLambda floor, projected onto the simplex.
func multiplierState(rng *rand.Rand, g int, floorFrac float64, opt Options) *lrState {
	s := &lrState{
		opt:     opt,
		lambda:  make([]float64, g),
		grpTDM:  make([]float64, g),
		windows: newGroupWindows(g, DefaultWindow),
	}
	var total float64
	for i := range s.lambda {
		s.lambda[i] = 0.01 + rng.Float64()
		total += s.lambda[i]
	}
	for i := range s.lambda {
		s.lambda[i] /= total
		if rng.Float64() < floorFrac {
			s.lambda[i] = minLambda
		}
	}
	return s
}

// fillGroupTDMs draws one iteration's group TDMs into tdms and returns the
// largest. A few groups repeat the previous value, so their windows go
// degenerate and take the zero z-score lane; a few tie the maximum.
func fillGroupTDMs(rng *rand.Rand, tdms []float64) (z float64) {
	for i := range tdms {
		switch r := rng.Float64(); {
		case r < 0.1 && tdms[i] > 0:
			// keep the previous sample
		case r < 0.15:
			tdms[i] = 100
		default:
			tdms[i] = 100 * (1 - rng.Float64())
		}
		z = math.Max(z, tdms[i])
	}
	return z
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameWindows(a, b *groupWindows) bool {
	if a.w != b.w || !sameBits(a.buf, b.buf) || !sameBits(a.sum, b.sum) || !sameBits(a.sumSq, b.sumSq) {
		return false
	}
	for i := range a.count {
		if a.count[i] != b.count[i] || a.head[i] != b.head[i] {
			return false
		}
	}
	return true
}

// TestUpdateMultipliersMatchesMathPow runs the real update and the math.Pow
// reference side by side over seeded states with floor lanes and requires
// the same multipliers and SMA windows, bit for bit, after every iteration.
// Every fifth iteration divides by less than the largest group TDM, so some
// norms exceed 1 and the math.Pow fallback runs inside the update as well.
// FuzzPowNorm covers powNorm at k outside [1, 4).
func TestUpdateMultipliersMatchesMathPow(t *testing.T) {
	for _, workers := range []int{1, 3} {
		opt := Options{Workers: workers}.withDefaults()
		seed := int64(1000*DefaultAlpha) + int64(workers)
		got := multiplierState(rand.New(rand.NewSource(seed)), 500, 0.3, opt)
		want := multiplierState(rand.New(rand.NewSource(seed)), 500, 0.3, opt)
		rng := rand.New(rand.NewSource(seed))
		for it := 0; it < 60; it++ {
			z := fillGroupTDMs(rng, got.grpTDM)
			copy(want.grpTDM, got.grpTDM)
			if it%5 == 4 {
				z *= 0.9
			}
			got.updateMultipliers(z)
			updateMultipliersMathPow(want, z)
			if !sameBits(got.lambda, want.lambda) || !sameWindows(got.windows, want.windows) {
				t.Fatalf("workers %d: iteration %d differs from the math.Pow update", workers, it)
			}
		}
	}
}

// BenchmarkUpdateMultipliers reports the cost of one group's multiplier
// update (z-score, Sigmoid, window push and powNorm) in ns/group, on seeded
// states of 406 and 40600 groups with no floor lanes and full windows. Each
// iteration restores the multipliers, so the states never decay to the
// floor, and cycles through 16 seeded TDM draws, so the z-scores vary.
func BenchmarkUpdateMultipliers(b *testing.B) {
	for _, g := range []int{406, 40600} {
		b.Run("groups-"+strconv.Itoa(g), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(g)))
			s := multiplierState(rng, g, 0, Options{Workers: 1}.withDefaults())
			lambda0 := append([]float64(nil), s.lambda...)
			draws := make([][]float64, 16)
			zs := make([]float64, len(draws))
			for i := range draws {
				draws[i] = make([]float64, g)
				zs[i] = fillGroupTDMs(rng, draws[i])
			}
			for i := 0; i < 2*DefaultWindow; i++ {
				s.grpTDM = draws[i%len(draws)]
				s.updateMultipliers(zs[i%len(draws)])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(s.lambda, lambda0)
				s.grpTDM = draws[i%len(draws)]
				s.updateMultipliers(zs[i%len(draws)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g), "ns/group")
		})
	}
}
