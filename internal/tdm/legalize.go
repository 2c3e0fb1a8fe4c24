package tdm

import "tdmroute/internal/problem"

// Legalize rounds a relaxed assignment to legal TDM ratios (Sec. IV-E):
// each ratio is raised to the next even integer, never below 2. Raising a
// ratio lowers its reciprocal, so if the relaxed per-edge reciprocal sums
// were at most 1 the legalized ones are too.
func Legalize(relaxed [][]float64) [][]int64 {
	out := ratioRows(relaxed)
	for n, ts := range relaxed {
		row := out[n]
		for k, t := range ts {
			row[k] = legalizeRatio(t)
		}
	}
	return out
}

// ratioRows returns rows shaped like relaxed, carved from one backing slab:
// two allocations per call instead of one per net. Each row's capacity is
// clamped to its length, so an append to a row reallocates it instead of
// spilling into the next.
func ratioRows(relaxed [][]float64) [][]int64 {
	var total int
	for _, ts := range relaxed {
		total += len(ts)
	}
	out := make([][]int64, len(relaxed))
	backing := make([]int64, total)
	for n, ts := range relaxed {
		out[n], backing = backing[:len(ts):len(ts)], backing[len(ts):]
	}
	return out
}

// Saturation bounds, aliased from the shared helpers in internal/problem
// (see problem.EvenCeilRatio for the overflow rationale).
const (
	maxEvenRatio = problem.MaxEvenRatio
	maxPow2Ratio = problem.MaxPow2Ratio
)

// legalizeRatio returns the smallest even integer >= max(t, 2), saturating
// at the largest even int64 for +Inf or values beyond the int64 range. It
// delegates to the shared saturating helper so the TDM and baseline stages
// legalize identically.
func legalizeRatio(t float64) int64 { return problem.EvenCeilRatio(t) }

// LegalizePow2 rounds a relaxed assignment up to powers of two (>= 2).
// This reproduces the ratio restriction of the paper's refs [2][3] (Pui et
// al.), which real TDM hardware favours because the per-edge slot frame
// stays as short as the largest ratio. Compared to Legalize it trades
// objective quality for schedulability; the ablation benchmarks quantify
// the cost.
func LegalizePow2(relaxed [][]float64) [][]int64 {
	out := ratioRows(relaxed)
	for n, ts := range relaxed {
		row := out[n]
		for k, t := range ts {
			row[k] = legalizeRatioPow2(t)
		}
	}
	return out
}

// legalizeRatioPow2 returns the smallest power of two >= max(t, 2),
// saturating at 2^62 for +Inf or values beyond that.
func legalizeRatioPow2(t float64) int64 { return problem.Pow2CeilRatio(t) }
