package tdm

import (
	"context"
	"fmt"

	"tdmroute/internal/eval"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// Assign runs the complete TDM ratio assignment stage of the paper on a
// fixed routing topology: Lagrangian relaxation (Algorithm 1), legalization,
// and refinement (Algorithm 2). It returns a legal assignment (every ratio
// even and >= 2, per-edge reciprocal sums <= 1) and a Report with the
// Table II metrics.
//
// Assign is anytime: when ctx is cancelled (or a worker panic is contained)
// the best-so-far relaxed assignment is legalized and returned with
// Report.Interrupted holding the cause — the assignment is still legal, only
// less optimized. A non-nil error is returned only when no legal assignment
// could be produced at all.
//
// Assign is Session.Assign on a fresh session.
func Assign(ctx context.Context, in *problem.Instance, routes problem.Routing, opt Options) (problem.Assignment, Report, error) {
	return NewSession(in).Assign(ctx, routes, opt)
}

// Finish legalizes a relaxed assignment and applies the refinement sweep,
// filling the GTRNoRef and GTRMax fields of the report. It is split from
// Assign so callers can time the LR and legalization+refinement stages
// separately (the Fig. 3(a) breakdown).
//
// Legalization always runs to completion (it is cheap and required for
// legality); the refinement checks ctx before its sweep and inside it, and
// a contained panic or cancellation mid-refinement keeps the ratios refined
// so far — every prefix of a refinement sweep is legal. An early stop is
// reported in Report.Interrupted, not as an error.
func Finish(ctx context.Context, in *problem.Instance, routes problem.Routing, relaxed [][]float64, opt Options) (problem.Assignment, Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(relaxed) != len(routes) {
		return problem.Assignment{}, Report{}, fmt.Errorf("tdm: relaxed assignment has %d nets, routing has %d", len(relaxed), len(routes))
	}
	opt = opt.withDefaults()
	var ratios [][]int64
	if err := par.Capture(func() error {
		ratios = Legalize(relaxed, opt.Legal)
		return nil
	}); err != nil {
		return problem.Assignment{}, Report{}, err
	}

	var rep Report
	sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: ratios}}
	rep.GTRNoRef, _ = eval.MaxGroupTDM(in, sol)

	rep.Interrupted = par.Capture(func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		Refine(ctx, in, routes, ratios, DefaultTol, opt.Legal)
		compactUngrouped(in, routes, ratios, DefaultTol, opt.Legal)
		return nil
	})
	rep.GTRMax, _ = eval.MaxGroupTDM(in, sol)

	return problem.Assignment{Ratios: ratios}, rep, nil
}

// compactUngrouped rewrites the ratios of nets that belong to no NetGroup.
// The LR patterns give such nets enormous ratios (their π is floored near
// zero), which is legal but makes the per-edge TDM slot frame
// unrealizable. Since their ratios never enter the objective, each edge's
// residual budget is instead split evenly among its ungrouped cells,
// yielding the smallest legal (even or power-of-two) common ratio.
func compactUngrouped(in *problem.Instance, routes problem.Routing, ratios [][]int64, tol float64, legal Legalizer) {
	loads := problem.EdgeLoads(in.G.NumEdges(), routes)
	for _, ls := range loads {
		if len(ls) == 0 {
			continue
		}
		var grouped float64
		u := 0
		for _, l := range ls {
			if len(in.Nets[l.Net].Groups) > 0 {
				grouped += 1 / float64(ratios[l.Net][l.Pos])
			} else {
				u++
			}
		}
		if u == 0 {
			continue
		}
		budget := 1 - tol - grouped
		if budget <= 0 {
			continue // keep the existing (legal) huge ratios
		}
		// Feed the fractional ratio straight to the legalizer: it rounds
		// up itself and saturates near-zero budgets instead of letting an
		// int64(math.Ceil(...)) conversion overflow negative.
		r := legal.round(float64(u) / budget)
		for _, l := range ls {
			if len(in.Nets[l.Net].Groups) == 0 {
				ratios[l.Net][l.Pos] = r
			}
		}
	}
}
