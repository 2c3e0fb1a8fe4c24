package tdmroute

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tdmroute/internal/eval"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// runIterative is the ModeIterative pipeline, with options already
// normalized by the Run boundary: req.Rounds feedback rounds (0 selects 3)
// after the base solve. It extends the paper's one-pass framework
// (Fig. 2(b)) with solution-driven feedback: after TDM ratio assignment, the
// NetGroup that actually realizes GTR_max is ripped up and rerouted (the
// Sec. III-B move, but driven by true ratios instead of the φ(g) estimate),
// and the assignment re-runs warm-started from the previous multipliers.
// A round is kept only if GTR_max improved, so the result is never worse
// than ModeSingle's.
//
// Cancellation between or during feedback rounds keeps the accepted
// incumbent and returns it with Degraded set (stage "feedback");
// cancellation during the base solve degrades as ModeSingle does and skips
// the feedback rounds entirely. When a hard (non-interruption) error occurs
// after the base solve, the returned response is non-nil alongside the
// error and carries the incumbent and the stage times of all work done.
//
// The whole run shares one routing session and one TDM session: the APSP
// LUT, terminal MSTs, search scratch, and the CSR incidence of the LR are
// built once by the base solve and patched incrementally by every feedback
// round. The results are byte-identical to rebuilding each stage from
// scratch (the solveIterativeCold test reference); only the wall clock
// differs. The base assignment's own LR captures λ for the first warm start,
// instead of re-running a full relaxation on the accepted topology.
//
// warm, when non-nil, receives the run's live sessions, final multipliers,
// and the stale-net bookkeeping (Request.Retain); the caller must discard it
// when runIterative also returns an error.
func runIterative(ctx context.Context, req Request, warm *WarmHandle) (*Response, error) {
	in, opt, rounds := req.Instance, req.Options, req.Rounds
	if rounds == 0 {
		rounds = 3
	}

	rs := route.NewSession(in, opt.Route)
	ts := tdm.NewSession(in)
	var lambda []float64
	var stale []int
	if warm != nil {
		warm.rs, warm.ts = rs, ts
		defer func() {
			warm.lambda = lambda
			warm.stale = stale
		}()
	}
	res, err := solveBaseSession(ctx, in, opt, rs, ts, &lambda)
	if err != nil {
		return nil, err
	}
	res.Mode = ModeIterative
	res.InitialGTR = res.Report.GTRMax
	if res.Degraded != nil {
		// The base solve was already curtailed: there is no budget left
		// for feedback rounds, and the base incumbent stands.
		return res, nil
	}

	var stop error
	for round := 0; round < rounds; round++ {
		if cerr := ctx.Err(); cerr != nil {
			stop = cerr
			break
		}
		if req.onRound != nil {
			req.onRound(round)
		}
		res.RoundsRun++
		improved, err := feedbackRoundSession(ctx, in, res, opt, rs, ts, &lambda, &stale)
		if err != nil {
			if isInterruption(err) {
				stop = err // incumbent stands; the round's candidate is dropped
				if warm != nil {
					// A contained panic may have interrupted the TDM session
					// mid-splice; a cancellation stops only at clean
					// boundaries. Poison the handle on the former.
					var pe *par.PanicError
					if errors.As(err, &pe) {
						warm.err = err
					}
				}
				break
			}
			return res, err
		}
		if improved {
			res.RoundsKept++
		} else {
			break // a non-improving reroute of the critical group repeats
		}
	}
	if stop == nil {
		// An accepted candidate may itself have come from a curtailed
		// assignment (Report.Interrupted); surface that as degradation.
		stop = res.Report.Interrupted
	}
	if stop != nil {
		res.Degraded = &Degraded{
			Stage:          StageFeedback,
			Cause:          stop,
			LRIterations:   res.Report.Iterations,
			FeedbackRounds: res.RoundsRun,
			IncumbentGTR:   res.Report.GTRMax,
		}
	}
	return res, nil
}

// solveBaseSession is runSingle running through the iterated solver's
// sessions instead of throwaway per-call state, with the final multipliers
// of the base LR captured into *lambda for the first feedback warm start.
// The session stages compute exactly what their cold counterparts compute,
// so the result is identical to runSingle's.
func solveBaseSession(ctx context.Context, in *Instance, opt Options, rs *route.Session, ts *tdm.Session, lambda *[]float64) (*Response, error) {
	res := &Response{Mode: ModeSingle}
	t0 := time.Now()
	var routes Routing
	var rstats RouteStats
	err := par.Capture(func() error {
		var e error
		routes, rstats, e = rs.Route(ctx)
		return e
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.RouteStats = rstats
	routeCurtailed := ctx.Err() != nil

	topt := opt.TDM
	userCapture := topt.CaptureLambda
	topt.CaptureLambda = func(l []float64) {
		*lambda = append([]float64(nil), l...)
		if userCapture != nil {
			userCapture(l)
		}
	}
	assign, rep, times, stage, err := assignTimed(ctx, sessionLR(ts, nil), in, routes, topt)
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		return nil, err
	}
	res.Report = rep
	// Snapshot the routing header: the session mutates its live routing on
	// every feedback reroute, while the incumbent must stay frozen.
	res.Solution = &Solution{Routes: rs.Routes(), Assign: assign}
	if routeCurtailed {
		stage = StageRoute
	}
	res.Degraded = stageDegraded(ctx, stage, rep)
	return res, nil
}

// feedbackRoundSession is feedbackRoundCold (the test reference) running in
// place on the shared sessions: the critical group is rerouted inside the
// routing session and the LR state is patched with just those nets. On
// rejection or error the reroute is undone, restoring the accepted topology. (A rejected or failed
// round always ends the loop, so the TDM session — already patched to the
// dropped candidate — is not consulted again within this run.)
//
// stale records the nets whose routes the TDM session was patched with this
// round; it is cleared when the round is accepted, so after the loop it
// names exactly the nets on which the TDM session lags the routing session.
// A retained warm handle folds it into the next delta's changed set.
func feedbackRoundSession(ctx context.Context, in *Instance, res *Response, opt Options, rs *route.Session, ts *tdm.Session, lambda *[]float64, stale *[]int) (bool, error) {
	cur := res.Solution
	_, gmax := eval.MaxGroupTDM(in, cur)
	if gmax < 0 {
		return false, nil
	}
	members := in.Groups[gmax].Nets

	t0 := time.Now()
	err := par.Capture(func() error {
		return rs.Reroute(ctx, members)
	})
	res.Times.Route += time.Since(t0)
	if err != nil {
		return false, err // Reroute already rolled the session back
	}
	candidate := rs.RoutesAlias()
	if err := problem.ValidateRouting(in, candidate); err != nil {
		rs.UndoReroute()
		return false, fmt.Errorf("tdmroute: feedback reroute produced invalid topology: %w", err)
	}

	topt := opt.TDM
	topt.WarmLambda = *lambda
	var captured []float64
	topt.CaptureLambda = func(l []float64) { captured = l }
	// Copy rather than alias the group's member list: it outlives the round
	// inside a retained warm handle, while delta group edits mutate the
	// instance's slices in place.
	*stale = append([]int(nil), members...)
	assign, rep, times, _, err := assignTimed(ctx, sessionLR(ts, members), in, candidate, topt)
	res.Times.LR += times.LR
	res.Times.LegalRefine += times.LegalRefine
	if err != nil {
		rs.UndoReroute()
		return false, err
	}

	if rep.GTRMax >= res.Report.GTRMax {
		rs.UndoReroute()
		return false, nil // reject; keep previous solution and multipliers
	}
	res.Solution = &Solution{Routes: rs.Routes(), Assign: assign}
	res.Report = rep
	*lambda = captured
	*stale = nil
	return true, nil
}

// isInterruption reports whether err is an anytime-stop cause — context
// cancellation, an expired deadline, or a contained worker panic — as
// opposed to a hard failure of the algorithm or its inputs.
func isInterruption(err error) bool {
	var pe *par.PanicError
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &pe)
}
