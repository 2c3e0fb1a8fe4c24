package tdmroute

import (
	"bytes"
	"context"
	"testing"

	"tdmroute/internal/gen"
)

// TestRunIdenticalAcrossWorkers is the worker-count contract of Run: on
// every board of the suite, in every mode, the solution bytes, the Report
// (LowerBound and RelaxedZ included, bit for bit), the routing stats and
// the feedback counters are the same at Workers 1, 2, 3 and 8. Workers
// only decides how many goroutines run fixed work. The LR is capped at 20
// iterations to keep the larger boards quick.
func TestRunIdenticalAcrossWorkers(t *testing.T) {
	options := func(workers int) Options {
		return Options{Workers: workers, TDM: TDMOptions{MaxIter: 20}}
	}
	type result struct {
		sol    []byte
		rep    Report
		rstats RouteStats
		rounds [3]int64
	}
	of := func(resp *Response) result {
		return result{solutionBytes(t, resp.Solution), resp.Report, resp.RouteStats,
			[3]int64{int64(resp.RoundsRun), int64(resp.RoundsKept), resp.InitialGTR}}
	}
	for i, bench := range gen.SuiteNames() {
		in := equivInstance(t, bench, int64(i))
		topo, err := Run(context.Background(), Request{Instance: in, Options: options(1)})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		runs := map[Mode]func(workers int) (*Response, error){
			ModeSingle: func(workers int) (*Response, error) {
				return Run(context.Background(), Request{Instance: in, Options: options(workers)})
			},
			ModeIterative: func(workers int) (*Response, error) {
				return Run(context.Background(), Request{Instance: in, Mode: ModeIterative, Rounds: 2,
					Options: options(workers)})
			},
			ModeAssignOnly: func(workers int) (*Response, error) {
				return Run(context.Background(), Request{Instance: in, Mode: ModeAssignOnly,
					Routing: topo.Solution.Routes, Options: options(workers)})
			},
			ModeDelta: func(workers int) (*Response, error) {
				own := in.Clone() // the warm handle patches its instance in place
				opt := options(workers)
				base, err := Run(context.Background(), Request{Instance: own, Options: opt, Retain: true})
				if err != nil {
					return nil, err
				}
				d := buildTestDelta(t, own, base.Warm.Routes())
				return Run(context.Background(), Request{Mode: ModeDelta, Base: base.Warm, Delta: d, Options: opt})
			},
		}
		for _, mode := range []Mode{ModeSingle, ModeIterative, ModeAssignOnly, ModeDelta} {
			var ref result
			for _, workers := range []int{1, 2, 3, 8} {
				resp, err := runs[mode](workers)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", bench, mode, workers, err)
				}
				got := of(resp)
				if workers == 1 {
					ref = got
					continue
				}
				if !bytes.Equal(got.sol, ref.sol) {
					t.Errorf("%s %v: solution bytes at workers=%d differ from workers=1", bench, mode, workers)
				}
				if got.rep != ref.rep || got.rstats != ref.rstats || got.rounds != ref.rounds {
					t.Errorf("%s %v: workers=%d reports %+v %+v %v, workers=1 %+v %+v %v", bench, mode, workers,
						got.rep, got.rstats, got.rounds, ref.rep, ref.rstats, ref.rounds)
				}
			}
		}
	}
}
