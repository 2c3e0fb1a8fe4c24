package tdmroute

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// solutionSHA is the digest the equivalence suite compares: the SHA-256 of
// the contest text serialization, so "identical" means identical down to
// every routed edge and every TDM ratio digit.
func solutionSHA(t *testing.T, sol *problem.Solution) [32]byte {
	t.Helper()
	return sha256.Sum256(solutionBytes(t, sol))
}

// buildTestDelta assembles a deterministic delta exercising every edit kind:
// one net removed, two nets added (one joining the removed net's groups),
// one group membership moved, and congestion bias on a routed edge.
func buildTestDelta(t *testing.T, in *Instance, routes Routing) *Delta {
	t.Helper()
	d := &Delta{}
	rm := -1
	for n := range in.Nets {
		if len(in.Nets[n].Terminals) >= 2 && len(in.Nets[n].Groups) > 0 {
			rm = n
			break
		}
	}
	if rm < 0 {
		t.Fatal("instance has no removable net")
	}
	d.RemoveNets = []int{rm}
	terms := in.Nets[rm].Terminals
	d.AddNets = []Net{
		{Terminals: []int{terms[0], terms[1]}, Groups: append([]int(nil), in.Nets[rm].Groups...)},
		{Terminals: []int{terms[len(terms)-1], terms[0]}},
	}
	var ga, gr *GroupEdit
	for g := 0; g < len(in.Groups) && (ga == nil || gr == nil); g++ {
		mem := in.Groups[g].Nets
		if gr == nil {
			for _, n := range mem {
				if n != rm {
					gr = &GroupEdit{Group: g, Net: n}
					break
				}
			}
		}
		if ga == nil {
			for n := 0; n < len(in.Nets); n++ {
				if n == rm || len(in.Nets[n].Terminals) == 0 || containsSorted(mem, n) {
					continue
				}
				ge := GroupEdit{Group: g, Net: n}
				if gr == nil || *gr != ge {
					ga = &ge
					break
				}
			}
		}
	}
	if ga == nil || gr == nil {
		t.Fatal("instance offers no group membership edits")
	}
	d.GroupAdd = []GroupEdit{*ga}
	d.GroupRemove = []GroupEdit{*gr}
	for _, es := range routes {
		if len(es) > 0 {
			d.EdgeBias = []EdgeBiasEdit{{Edge: es[0], Delta: 2}}
			break
		}
	}
	if len(d.EdgeBias) == 0 {
		t.Fatal("instance has no routed edge to bias")
	}
	return d
}

// buildChainDelta assembles the second delta of a chain: it removes the net
// added by the first delta, withdraws part of its bias, and pressures a new
// edge.
func buildChainDelta(t *testing.T, in *Instance, routes Routing, first *Delta) *Delta {
	t.Helper()
	d := &Delta{RemoveNets: []int{len(in.Nets) - 1}}
	biased := first.EdgeBias[0].Edge
	d.EdgeBias = []EdgeBiasEdit{{Edge: biased, Delta: -1}}
	for n := len(routes) - 1; n >= 0; n-- {
		es := routes[n]
		if len(es) > 0 && es[len(es)-1] != biased {
			d.EdgeBias = append(d.EdgeBias, EdgeBiasEdit{Edge: es[len(es)-1], Delta: 3})
			break
		}
	}
	if len(d.EdgeBias) < 2 {
		t.Fatal("instance has no second edge to bias")
	}
	return d
}

// TestDeltaMatchesColdReference is the byte-identity contract of the ECO
// path: across generator seeds, worker counts, and a deterministic mid-LR
// cancellation, a ModeDelta solve on retained warm state must reproduce the
// from-scratch reference (runDeltaCold, run once from the Workers=1 base)
// on the patched instance exactly — same solution digest, same objective,
// same degradation. A second, chained delta (consuming the handle the
// first one returned) is held to the same standard, pinning multiplier
// capture, bias accumulation, and tombstone handling across deltas.
func TestDeltaMatchesColdReference(t *testing.T) {
	cases := []struct {
		bench string
		shift int64
	}{
		{"synopsys01", 10},
		{"synopsys02", 11},
		{"hidden01", 12},
	}
	for _, tc := range cases {
		for _, cancelIter := range []int{-1, 1} {
			trace := func(cancel context.CancelFunc) func(int, float64, float64) {
				if cancelIter < 0 {
					return nil
				}
				return func(iter int, _, _ float64) {
					if iter == cancelIter {
						cancel()
					}
				}
			}
			// The cold chain, computed once from the first (Workers=1) base,
			// and the instance it patches after each of its two deltas.
			var in2, patched1 *Instance
			var respC, respC2 *Response
			for _, workers := range []int{1, 4} {
				in1 := equivInstance(t, tc.bench, tc.shift)
				opt := Options{Workers: workers}

				base, err := Run(context.Background(), Request{Instance: in1, Options: opt, Retain: true})
				if err != nil {
					t.Fatalf("%s workers=%d: base solve: %v", tc.bench, workers, err)
				}
				h := base.Warm
				if h == nil {
					t.Fatalf("%s workers=%d: Retain returned no warm handle", tc.bench, workers)
				}
				baseRouting := h.Routes()
				baseLambda := h.Lambda()
				d1 := buildTestDelta(t, in1, baseRouting)
				if in2 == nil {
					in2 = equivInstance(t, tc.bench, tc.shift)
				}

				wctx, wcancel := context.WithCancel(context.Background())
				wopt := opt
				wopt.TDM.Trace = trace(wcancel)
				respW, err := Run(wctx, Request{Mode: ModeDelta, Base: h, Delta: d1, Options: wopt})
				wcancel()
				if err != nil {
					t.Fatalf("%s workers=%d cancel=%d: warm delta: %v", tc.bench, workers, cancelIter, err)
				}
				if respW.Warm != h {
					t.Fatalf("%s workers=%d cancel=%d: delta response did not return the handle", tc.bench, workers, cancelIter)
				}

				var routingC Routing
				var lambdaC []float64
				if respC == nil {
					cctx, ccancel := context.WithCancel(context.Background())
					copt := opt
					copt.TDM.Trace = trace(ccancel)
					respC, routingC, lambdaC, err = runDeltaCold(cctx, in2, baseRouting, nil, baseLambda, d1, copt)
					ccancel()
					if err != nil {
						t.Fatalf("%s cancel=%d: cold delta: %v", tc.bench, cancelIter, err)
					}
					patched1 = in2.Clone()
				}

				compare := func(step string, w, c *Response, patched *Instance) {
					t.Helper()
					if w.Report.GTRMax != c.Report.GTRMax {
						t.Fatalf("%s workers=%d cancel=%d %s: GTR %d vs %d",
							tc.bench, workers, cancelIter, step, w.Report.GTRMax, c.Report.GTRMax)
					}
					if (w.Degraded != nil) != (c.Degraded != nil) {
						t.Fatalf("%s workers=%d cancel=%d %s: degraded %v vs %v",
							tc.bench, workers, cancelIter, step, w.Degraded, c.Degraded)
					}
					if solutionSHA(t, w.Solution) != solutionSHA(t, c.Solution) {
						t.Fatalf("%s workers=%d cancel=%d %s: solution digests diverged",
							tc.bench, workers, cancelIter, step)
					}
					if err := problem.ValidateSolution(patched, w.Solution); err != nil {
						t.Fatalf("%s workers=%d cancel=%d %s: delta solution invalid on patched instance: %v",
							tc.bench, workers, cancelIter, step, err)
					}
				}
				compare("delta1", respW, respC, patched1)

				// Chain a second delta through the same handle; the cold
				// reference replays the first delta's bias on a fresh session.
				d2 := buildChainDelta(t, h.Instance(), respW.Solution.Routes, d1)
				respW2, err := Run(context.Background(), Request{Mode: ModeDelta, Base: respW.Warm, Delta: d2, Options: opt})
				if err != nil {
					t.Fatalf("%s workers=%d cancel=%d: warm delta2: %v", tc.bench, workers, cancelIter, err)
				}
				if respC2 == nil {
					respC2, _, _, err = runDeltaCold(context.Background(), in2, routingC, d1.EdgeBias, lambdaC, d2, opt)
					if err != nil {
						t.Fatalf("%s cancel=%d: cold delta2: %v", tc.bench, cancelIter, err)
					}
				}
				compare("delta2", respW2, respC2, in2)
			}
		}
	}
}

// TestDeltaAfterIterativeRetain covers the ModeIterative retention path: the
// warm handle of an iterated solve — whose TDM session last solved the
// final rejected feedback round's candidate, not the routing session's
// accepted topology — must still produce a delta solve byte-identical to
// the cold reference.
func TestDeltaAfterIterativeRetain(t *testing.T) {
	in1 := equivInstance(t, "synopsys01", 13)
	in2 := in1.Clone()
	opt := Options{}

	base, err := Run(context.Background(), Request{Instance: in1, Mode: ModeIterative, Rounds: 3, Options: opt, Retain: true})
	if err != nil {
		t.Fatalf("base iterative solve: %v", err)
	}
	h := base.Warm
	if h == nil {
		t.Fatal("Retain returned no warm handle")
	}
	baseRouting := h.Routes()
	baseLambda := h.Lambda()

	d := buildTestDelta(t, in1, baseRouting)
	respW, err := Run(context.Background(), Request{Mode: ModeDelta, Base: h, Delta: d})
	if err != nil {
		t.Fatalf("warm delta: %v", err)
	}
	respC, _, _, err := runDeltaCold(context.Background(), in2, baseRouting, nil, baseLambda, d, opt)
	if err != nil {
		t.Fatalf("cold delta: %v", err)
	}
	if respW.Report.GTRMax != respC.Report.GTRMax {
		t.Fatalf("GTR diverged: %d vs %d", respW.Report.GTRMax, respC.Report.GTRMax)
	}
	if solutionSHA(t, respW.Solution) != solutionSHA(t, respC.Solution) {
		t.Fatal("solution digests diverged after iterative retention")
	}
	if err := problem.ValidateSolution(in2, respW.Solution); err != nil {
		t.Fatalf("delta solution invalid on patched instance: %v", err)
	}
}

// TestRetainMatchesThrowaway pins that retention does not change results:
// a Retain run returns byte-identical solutions to the plain run it shadows,
// for both ModeSingle and ModeIterative.
func TestRetainMatchesThrowaway(t *testing.T) {
	for _, mode := range []Mode{ModeSingle, ModeIterative} {
		in := equivInstance(t, "synopsys02", 14)
		plain, err := Run(context.Background(), Request{Instance: in, Mode: mode})
		if err != nil {
			t.Fatalf("%v plain: %v", mode, err)
		}
		retained, err := Run(context.Background(), Request{Instance: in, Mode: mode, Retain: true})
		if err != nil {
			t.Fatalf("%v retained: %v", mode, err)
		}
		if retained.Warm == nil {
			t.Fatalf("%v: no warm handle", mode)
		}
		if solutionSHA(t, plain.Solution) != solutionSHA(t, retained.Solution) {
			t.Fatalf("%v: retained run diverged from the throwaway run", mode)
		}
		if plain.Report.GTRMax != retained.Report.GTRMax {
			t.Fatalf("%v: GTR diverged: %d vs %d", mode, plain.Report.GTRMax, retained.Report.GTRMax)
		}
	}
}

// runDeltaCold is the from-scratch reference implementation of the delta
// solve, kept for the equivalence suite (the delta analogue of
// solveIterativeCold): apply the delta to a frozen pre-delta instance, seed
// a fresh routing session from the pre-delta topology, replay the cumulative
// edge bias, reroute the affected nets, and run a cold LR build warm-started
// from the same multipliers. priorBias replays bias applied by earlier
// deltas on the same warm state. The returned routing and multipliers chain
// into the next cold step.
func runDeltaCold(ctx context.Context, in *Instance, base Routing, priorBias []EdgeBiasEdit, lambda []float64, d *Delta, opt Options) (*Response, Routing, []float64, error) {
	opt, optErr := opt.normalized()
	if optErr != nil {
		return nil, nil, nil, optErr
	}
	if err := d.validate(in, cumulativeBias(priorBias)); err != nil {
		return nil, nil, nil, err
	}
	added := d.apply(in)
	routes := base.Clone()
	for range added {
		routes = append(routes, nil)
	}
	rs, err := route.NewSessionFromRouting(in, routes, opt.Route)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, eb := range priorBias {
		if err := rs.AddEdgeBias(eb.Edge, eb.Delta); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := rs.Remove(d.RemoveNets); err != nil {
		return nil, nil, nil, err
	}
	for _, eb := range d.EdgeBias {
		if err := rs.AddEdgeBias(eb.Edge, eb.Delta); err != nil {
			return nil, nil, nil, err
		}
	}
	affected := deltaAffectedNets(rs.RoutesAlias(), added, d.EdgeBias)

	res := &Response{Mode: ModeDelta}
	t0 := time.Now()
	err = par.Capture(func() error {
		return rs.Reroute(ctx, affected)
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	if verr := problem.ValidateRouting(in, rs.RoutesAlias()); verr != nil {
		return nil, nil, nil, fmt.Errorf("tdmroute: delta reroute produced invalid topology: %w", verr)
	}
	res.RouteStats = RouteStats{
		RoutedNets: len(affected),
		RippedNets: len(affected) - len(added) + len(d.RemoveNets),
	}

	topt := opt.TDM
	topt.WarmLambda = lambda
	var captured []float64
	topt.CaptureLambda = func(l []float64) { captured = l }
	assign, rep, times, stage, err := assignTimed(ctx, tdm.NewSession(in), in, rs.RoutesAlias(), topt)
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		return nil, nil, nil, err
	}
	res.Report = rep
	res.Solution = &Solution{Routes: rs.Routes(), Assign: assign}
	res.Degraded = stageDegraded(ctx, stage, rep)
	return res, rs.Routes(), captured, nil
}

// cumulativeBias folds a replayed bias-edit list into a per-edge lookup.
func cumulativeBias(edits []EdgeBiasEdit) func(edge int) int64 {
	if len(edits) == 0 {
		return nil
	}
	cum := make(map[int]int64, len(edits))
	for _, eb := range edits {
		cum[eb.Edge] += int64(eb.Delta)
	}
	return func(edge int) int64 { return cum[edge] }
}
