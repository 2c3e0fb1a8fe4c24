package tdm

import "sort"

// refineEdgePow2 is the per-edge refinement move for power-of-two ratios:
// halving is the only quality move that preserves the restriction, and
// halving t consumes exactly 1/t of the edge margin (1/(t/2) - 1/t = 1/t).
// It repeatedly halves the largest candidate that fits in the margin.
func refineEdgePow2(cand []candidate, xi float64) {
	sort.Slice(cand, func(i, j int) bool { return cand[i].t > cand[j].t })
	for xi > 0 {
		moved := false
		for i := range cand {
			t := cand[i].t
			if t <= 2 {
				continue
			}
			cost := 1 / float64(t)
			if cost > xi {
				continue // smaller ratios cost more: but later candidates have smaller t -> higher cost; stop scanning
			}
			cand[i].t = t / 2
			xi -= cost
			moved = true
			// Restore non-increasing order locally.
			for j := i; j+1 < len(cand) && cand[j].t < cand[j+1].t; j++ {
				cand[j], cand[j+1] = cand[j+1], cand[j]
			}
			break
		}
		if !moved {
			return
		}
	}
}
