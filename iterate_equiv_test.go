package tdmroute

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"tdmroute/internal/eval"
	"tdmroute/internal/gen"
	"tdmroute/internal/graph"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// solutionBytes serializes a solution in the contest text format; the
// equivalence suite compares these bytes, so "identical" means identical
// down to every routed edge and every TDM ratio digit.
func solutionBytes(t *testing.T, sol *problem.Solution) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := problem.WriteSolution(&buf, sol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func equivInstance(t *testing.T, name string, seedShift int64) *Instance {
	t.Helper()
	cfg, err := gen.SuiteConfig(name, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed += seedShift
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSolveIterativeMatchesColdReference is the byte-identity contract of
// the incremental core: across generator seeds and a deterministic
// mid-round cancellation, the session-reusing ModeIterative Run at every
// worker count must reproduce the from-scratch reference
// (solveIterativeCold, run once at Workers=1) exactly — same solution
// bytes, same round counts, same objective.
func TestSolveIterativeMatchesColdReference(t *testing.T) {
	cases := []struct {
		bench string
		shift int64
	}{
		{"synopsys01", 0},
		{"synopsys02", 1},
		{"hidden01", 2},
	}
	for _, tc := range cases {
		for _, cancelRound := range []int{-1, 1} {
			in := equivInstance(t, tc.bench, tc.shift)
			run := func(solve func(context.Context, Request) (*Response, error), workers int) *Response {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				req := Request{
					Instance: in,
					Mode:     ModeIterative,
					Rounds:   4,
					Options:  Options{Workers: workers},
				}
				if cancelRound >= 0 {
					req.onRound = func(round int) {
						if round == cancelRound {
							cancel()
						}
					}
				}
				res, err := solve(ctx, req)
				if err != nil {
					t.Fatalf("%s workers=%d cancel=%d: %v", tc.bench, workers, cancelRound, err)
				}
				return res
			}
			cold := run(solveIterativeCold, 1)
			cb := solutionBytes(t, cold.Solution)
			for _, workers := range []int{1, 4} {
				warm := run(Run, workers)
				if warm.Report.GTRMax != cold.Report.GTRMax ||
					warm.InitialGTR != cold.InitialGTR ||
					warm.RoundsRun != cold.RoundsRun ||
					warm.RoundsKept != cold.RoundsKept {
					t.Fatalf("%s workers=%d cancel=%d: session (gtr=%d initial=%d run=%d kept=%d) vs cold (gtr=%d initial=%d run=%d kept=%d)",
						tc.bench, workers, cancelRound,
						warm.Report.GTRMax, warm.InitialGTR, warm.RoundsRun, warm.RoundsKept,
						cold.Report.GTRMax, cold.InitialGTR, cold.RoundsRun, cold.RoundsKept)
				}
				if wb := solutionBytes(t, warm.Solution); !bytes.Equal(wb, cb) {
					t.Fatalf("%s workers=%d cancel=%d: solution bytes diverged (%d vs %d bytes)",
						tc.bench, workers, cancelRound, len(wb), len(cb))
				}
				if (warm.Degraded != nil) != (cold.Degraded != nil) {
					t.Fatalf("%s workers=%d cancel=%d: degraded %v vs %v",
						tc.bench, workers, cancelRound, warm.Degraded, cold.Degraded)
				}
			}
		}
	}
}

// TestSingleMatchesColdReference pins ModeSingle, with and without Retain
// and at every worker count, to the one-shot reference runSingleCold run
// once at Workers=1: same solution bytes and the same report, across
// generator seeds.
func TestSingleMatchesColdReference(t *testing.T) {
	for i, bench := range []string{"synopsys01", "synopsys02", "hidden01"} {
		in := equivInstance(t, bench, int64(i))
		opt, err := Options{Workers: 1}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := runSingleCold(context.Background(), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, retain := range []bool{false, true} {
				res, err := Run(context.Background(), Request{Instance: in, Options: Options{Workers: workers}, Retain: retain})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(solutionBytes(t, res.Solution), solutionBytes(t, cold.Solution)) ||
					res.Report.GTRMax != cold.Report.GTRMax || res.Report.Iterations != cold.Report.Iterations {
					t.Fatalf("%s workers=%d retain=%v: session solve diverged from the cold reference (gtr %d vs %d)",
						bench, workers, retain, res.Report.GTRMax, cold.Report.GTRMax)
				}
			}
		}
	}
}

// TestSolveIterativeBuildsAPSPOnce pins the headline reuse property: one
// iterated solve — base routing plus every feedback reroute — constructs
// the all-pairs LUT exactly once. (The cold reference rebuilds it on every
// round, which is precisely the waste the session removes.)
func TestSolveIterativeBuildsAPSPOnce(t *testing.T) {
	in := equivInstance(t, "synopsys01", 0)
	before := graph.APSPBuilds()
	res, err := Run(context.Background(), Request{Instance: in, Mode: ModeIterative, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsRun < 1 {
		t.Fatalf("no feedback rounds ran (RoundsRun=%d); the test needs at least one reroute", res.RoundsRun)
	}
	if got := graph.APSPBuilds() - before; got != 1 {
		t.Fatalf("the iterated solve built the APSP %d times, want exactly 1", got)
	}
}

// runSingleCold is the pre-session implementation of ModeSingle, kept as
// the reference the session pipeline (solveBaseSession) must match: the
// one-shot router, then the assignment on a fresh TDM session, with options
// already normalized.
func runSingleCold(ctx context.Context, in *Instance, opt Options) (*Response, error) {
	res := &Response{Mode: ModeSingle}
	t0 := time.Now()
	var routes Routing
	var rstats RouteStats
	err := par.Capture(func() error {
		var e error
		routes, rstats, e = route.Route(ctx, in, opt.Route)
		return e
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.RouteStats = rstats
	routeCurtailed := ctx.Err() != nil

	assign, rep, times, stage, err := assignTimed(ctx, tdm.NewSession(in), in, routes, opt.TDM)
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		return nil, err
	}
	res.Report = rep
	res.Solution = &Solution{Routes: routes, Assign: assign}
	if routeCurtailed {
		stage = StageRoute
	}
	res.Degraded = stageDegraded(ctx, stage, rep)
	return res, nil
}

// solveIterativeCold is the pre-session implementation of ModeIterative,
// kept as the equivalence reference: every stage rebuilds its state from
// scratch (fresh router and APSP per reroute, fresh CSR per LR run, an
// explicit extra relaxation to recapture multipliers). The equivalence
// suite asserts Run reproduces its Routing and Assignment byte for byte.
func solveIterativeCold(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	in, rounds := req.Instance, req.Rounds
	if rounds == 0 {
		rounds = 3
	}
	opt, err := req.Options.normalized()
	if err != nil {
		return nil, err
	}
	res, err := runSingleCold(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	res.Mode = ModeIterative
	res.InitialGTR = res.Report.GTRMax
	if res.Degraded != nil {
		return res, nil
	}

	var lambda []float64
	topt := opt.TDM
	topt.CaptureLambda = func(l []float64) { lambda = l }
	// Recapture multipliers from the accepted solution's topology so the
	// first feedback round starts warm. Only the relaxation is needed for
	// the multipliers, so skip the legalize+refine half of a full
	// assignment. An interruption here is harmless — the multipliers are a
	// warm-start hint — and is caught at the next round boundary.
	t0 := time.Now()
	tdm.RunLR(ctx, in, res.Solution.Routes, topt)
	res.Times.LR += time.Since(t0)

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
		improved, err := feedbackRoundCold(ctx, in, res, opt, &lambda)
		if err != nil {
			if isInterruption(err) {
				stop = err
				break
			}
			return res, err
		}
		if improved {
			res.RoundsKept++
		} else {
			break
		}
	}
	if stop == nil {
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

// feedbackRoundCold rips the realized-GTR_max group, reroutes it against the
// existing usage with a throwaway router, reassigns from a cold LR build
// warm-started on the multipliers, and accepts on improvement. Stage times
// are folded into res.Times whether the round succeeds, is rejected, or
// fails — the time was spent either way.
func feedbackRoundCold(ctx context.Context, in *Instance, res *Response, opt Options, lambda *[]float64) (bool, error) {
	cur := res.Solution
	_, gmax := eval.MaxGroupTDM(in, cur)
	if gmax < 0 {
		return false, nil
	}
	members := in.Groups[gmax].Nets

	candidate := cur.Routes.Clone()
	t0 := time.Now()
	err := par.Capture(func() error {
		return route.RerouteNets(ctx, in, candidate, members, opt.Route)
	})
	res.Times.Route += time.Since(t0)
	if err != nil {
		return false, err
	}
	if err := problem.ValidateRouting(in, candidate); err != nil {
		return false, fmt.Errorf("tdmroute: feedback reroute produced invalid topology: %w", err)
	}

	topt := opt.TDM
	topt.WarmLambda = *lambda
	var captured []float64
	topt.CaptureLambda = func(l []float64) { captured = l }
	assign, rep, times, _, err := assignTimed(ctx, tdm.NewSession(in), in, candidate, topt)
	res.Times.LR += times.LR
	res.Times.LegalRefine += times.LegalRefine
	if err != nil {
		return false, err
	}

	if rep.GTRMax >= res.Report.GTRMax {
		return false, nil // reject; keep previous solution and multipliers
	}
	res.Solution = &Solution{Routes: candidate, Assign: assign}
	res.Report = rep
	*lambda = captured
	return true, nil
}
