package tdmroute_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"tdmroute"
	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
)

// Tests of the anytime contract: cancellation and deadlines return the best
// legal incumbent with a Degraded report, deterministically.

func anytimeInstance(t *testing.T) *tdmroute.Instance {
	t.Helper()
	in, err := gen.Generate(gen.Config{
		Name: "anytime", Seed: 3,
		FPGAs: 10, Edges: 18, Nets: 36, Groups: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// cancelAtIter returns options whose LR trace cancels at iteration k.
func cancelAtIter(opt tdmroute.Options, cancel context.CancelFunc, k int) tdmroute.Options {
	opt.TDM.Trace = func(iter int, z, lb float64) {
		if iter >= k {
			cancel()
		}
	}
	return opt
}

func TestSolveCtxCancelMidLR(t *testing.T) {
	in := anytimeInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := cancelAtIter(tdmroute.Options{TDM: tdmroute.TDMOptions{Epsilon: 1e-9, MaxIter: 500}}, cancel, 5)
	res, err := tdmroute.Run(ctx, tdmroute.Request{Instance: in, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == nil {
		t.Fatal("cancel at LR iteration 5 did not mark the result degraded")
	}
	d := res.Degraded
	if d.Stage != tdmroute.StageLR {
		t.Errorf("stage = %q, want %q", d.Stage, tdmroute.StageLR)
	}
	if !errors.Is(d.Cause, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", d.Cause)
	}
	if d.IncumbentGTR != res.Report.GTRMax {
		t.Errorf("IncumbentGTR = %d, Report.GTRMax = %d", d.IncumbentGTR, res.Report.GTRMax)
	}
	if err := problem.ValidateSolution(in, res.Solution); err != nil {
		t.Fatalf("degraded incumbent is not legal: %v", err)
	}
}

// The TDM incumbent under a fixed cancellation point must not depend on
// the worker count: Workers=1 and Workers=8 must produce byte-identical
// assignments on the same topology.
func TestAssignTDMCtxCancelWorkerInvariant(t *testing.T) {
	in := anytimeInstance(t)
	topo := solve(t, tdmroute.Request{Instance: in}).Solution.Routes
	assign := func(workers int) []byte {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := tdmroute.Options{Workers: workers, TDM: tdmroute.TDMOptions{Epsilon: 1e-9, MaxIter: 400}}
		opt.TDM.Trace = func(iter int, z, lb float64) {
			if iter >= 7 {
				cancel()
			}
		}
		res, err := tdmroute.Run(ctx, tdmroute.Request{
			Instance: in,
			Mode:     tdmroute.ModeAssignOnly,
			Options:  opt,
			Routing:  topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Interrupted == nil {
			t.Fatal("expected an interrupted assignment")
		}
		sol := res.Solution
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("interrupted assignment is not legal: %v", err)
		}
		var buf bytes.Buffer
		if err := problem.WriteSolution(&buf, sol); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := assign(1)
	many := assign(8)
	if !bytes.Equal(one, many) {
		t.Error("incumbent differs between Workers=1 and Workers=8 under the same cancellation point")
	}
}

// Repeating the identical cancellation must reproduce the identical
// incumbent — the determinism clause of the anytime contract.
func TestSolveCtxCancelDeterministic(t *testing.T) {
	in := anytimeInstance(t)
	run := func() []byte {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := cancelAtIter(tdmroute.Options{TDM: tdmroute.TDMOptions{Epsilon: 1e-9, MaxIter: 400}}, cancel, 3)
		res, err := tdmroute.Run(ctx, tdmroute.Request{Instance: in, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := problem.WriteSolution(&buf, res.Solution); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Error("identical cancellation points produced different incumbents")
	}
}

func TestSolveCtxPreCancelledIsError(t *testing.T) {
	in := anytimeInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := tdmroute.Run(ctx, tdmroute.Request{Instance: in})
	if err == nil {
		t.Fatalf("pre-cancelled solve returned a result (degraded=%v); no legal incumbent can exist", res.Degraded)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
}

func TestSolveCtxExpiredDeadline(t *testing.T) {
	in := anytimeInstance(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := tdmroute.Run(ctx, tdmroute.Request{Instance: in})
	if err == nil {
		t.Fatal("expired deadline before routing returned a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
}

func TestSolveIterativeCtxCancelBetweenRounds(t *testing.T) {
	in := anytimeInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel deep into LR so the base solve completes its budget but the
	// feedback rounds find the context dead.
	fired := 0
	req := tdmroute.Request{
		Instance: in,
		Mode:     tdmroute.ModeIterative,
		Rounds:   3,
		Options:  tdmroute.Options{TDM: tdmroute.TDMOptions{Epsilon: 1e-9, MaxIter: 30}},
	}
	req.Options.TDM.Trace = func(iter int, z, lb float64) {
		fired++
		if fired > 40 {
			cancel()
		}
	}
	res, err := tdmroute.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateSolution(in, res.Solution); err != nil {
		t.Fatalf("incumbent is not legal: %v", err)
	}
	if res.Degraded != nil && res.Degraded.Cause == nil {
		t.Error("Degraded set without a cause")
	}
}

func TestSolveIterativeTimesSurviveCancel(t *testing.T) {
	in := anytimeInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	req := tdmroute.Request{
		Instance: in,
		Mode:     tdmroute.ModeIterative,
		Rounds:   3,
		Options:  tdmroute.Options{TDM: tdmroute.TDMOptions{Epsilon: 1e-9, MaxIter: 50}},
	}
	req.Options.TDM.Trace = func(iter int, z, lb float64) {
		fired++
		if fired > 60 {
			cancel()
		}
	}
	res, err := tdmroute.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// The route and LR stages ran regardless of where the cancellation
	// hit; their time must not be dropped on the early-return paths.
	if res.Times.Route <= 0 {
		t.Error("Times.Route lost on the cancellation path")
	}
	if res.Times.LR <= 0 {
		t.Error("Times.LR lost on the cancellation path")
	}
}
