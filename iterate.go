package tdmroute

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tdmroute/internal/eval"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
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
// The whole run shares the routing and TDM sessions of h: the APSP LUT,
// terminal MSTs and search scratch are built once by the base solve (the
// ModeSingle pipeline, solveBaseSession), every feedback round reroutes in
// place, and the TDM session rebuilds its LR state into the buffers the
// previous round left. The results are byte-identical to rebuilding each
// stage from scratch (the solveIterativeCold test reference); only the wall
// clock differs. The base assignment's own LR captures λ for the first warm
// start, instead of re-running a full relaxation on the accepted topology.
//
// On return h holds the final multipliers, so the caller can hand it out
// for later ModeDelta requests (Request.Retain); the caller must discard it
// when runIterative also returns an error.
func runIterative(ctx context.Context, req Request, h *WarmHandle) (*Response, error) {
	rounds := req.Rounds
	if rounds == 0 {
		rounds = 3
	}

	res, err := solveBaseSession(ctx, h, &h.lambda)
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
		improved, err := feedbackRoundSession(ctx, res, h)
		if err != nil {
			if isInterruption(err) {
				stop = err // incumbent stands; the round's candidate is dropped
				// A contained panic may have interrupted the routing
				// session mid-reroute; a cancellation stops only at clean
				// boundaries. Poison the handle on the former.
				var pe *par.PanicError
				if errors.As(err, &pe) {
					h.err = err
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

// feedbackRoundSession is feedbackRoundCold (the test reference) running in
// place on the shared sessions: the critical group is rerouted inside the
// routing session and the TDM session rebuilds its LR state for the
// candidate. On rejection or error the reroute is undone, restoring the
// accepted topology; the TDM session keeps nothing of the candidate that a
// later call would read.
func feedbackRoundSession(ctx context.Context, res *Response, h *WarmHandle) (bool, error) {
	in, rs := h.in, h.rs
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

	topt := h.opt.TDM
	topt.WarmLambda = h.lambda
	var captured []float64
	assign, rep, times, _, err := assignTimed(ctx, h.ts, in, candidate, captureLambda(topt, &captured))
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
	h.lambda = captured
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
