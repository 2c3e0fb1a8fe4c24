// Session: the LR working set of one instance, reused across the solves of
// an iterated or delta run. Every RunLR and Assign call rebuilds the state
// from the routing it is given, into the buffers the previous call left,
// so consecutive rounds share capacity but no derived data: a round on a
// reused session is the cold build, and the caller names no changed nets.
//
// A Session is also the only LR path: the package-level RunLR and Assign
// are its methods on a fresh session.
package tdm

import (
	"context"
	"fmt"

	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// Session owns one instance's LR working set across an iterated solve. It
// is not safe for concurrent use.
type Session struct {
	in   *problem.Instance
	s    lrState
	best []float64 // reusable best-pattern snapshot buffer for runLRCore
}

// NewSession creates an empty session for in; each RunLR or Assign call
// builds the LR state.
func NewSession(in *problem.Instance) *Session {
	return &Session{in: in}
}

// RunLR executes Algorithm 1 on the given topology; the package-level RunLR
// documents its results and anytime semantics. Each call builds the state
// for routes in the session's buffers, so it does not depend on earlier
// calls.
func (t *Session) RunLR(ctx context.Context, routes problem.Routing, opt Options) (ratios [][]float64, z, lb float64, iters int, converged bool, stopped error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(routes) != len(t.in.Nets) {
		return nil, 0, 0, 0, false, fmt.Errorf("tdm: routing has %d nets, instance has %d", len(routes), len(t.in.Nets))
	}
	opt = opt.withDefaults()
	if err := par.Capture(func() error {
		return t.s.build(t.in, routes, opt)
	}); err != nil {
		return nil, 0, 0, 0, false, err
	}
	ratios, z, lb, iters, converged, stopped, t.best = runLRCore(ctx, &t.s, routes, opt, t.best)
	return ratios, z, lb, iters, converged, stopped
}

// Assign runs the complete assignment stage documented on the
// package-level Assign: LR on the session's state, then Finish's
// legalization and refinement.
func (t *Session) Assign(ctx context.Context, routes problem.Routing, opt Options) (problem.Assignment, Report, error) {
	opt = opt.withDefaults()
	relaxed, z, lb, iters, converged, stopped := t.RunLR(ctx, routes, opt)
	if relaxed == nil {
		return problem.Assignment{}, Report{}, stopped
	}
	assign, rep, err := Finish(ctx, t.in, routes, relaxed, opt)
	if err != nil {
		return problem.Assignment{}, Report{}, err
	}
	rep.Iterations = iters
	rep.Converged = converged
	rep.LowerBound = lb
	rep.RelaxedZ = z
	if stopped != nil {
		rep.Interrupted = stopped // the LR stop is the earlier cause
	}
	return assign, rep, nil
}
