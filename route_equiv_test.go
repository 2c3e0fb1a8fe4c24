package tdmroute

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"tdmroute/internal/problem"
)

// TestPartitionedRoutingWorkerInvariance pins the worker-count contract of
// partitioned initial routing: for a fixed Partitions count the result is a
// pure function of the instance and the options minus Workers, as on the
// wave path (TestRunIdenticalAcrossWorkers). Every solution must also
// survive the independent validator.
func TestPartitionedRoutingWorkerInvariance(t *testing.T) {
	cases := []struct {
		bench string
		shift int64
	}{
		{"synopsys01", 0},
		{"synopsys04", 4},
	}
	for _, tc := range cases {
		in := equivInstance(t, tc.bench, tc.shift)
		var ref []byte
		var refGTR int64
		for _, workers := range []int{1, 2, 3, 8} {
			resp, err := Run(context.Background(), Request{
				Instance: in,
				Options:  Options{Workers: workers, Partitions: 3},
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.bench, workers, err)
			}
			if err := problem.ValidateSolution(in, resp.Solution); err != nil {
				t.Fatalf("%s workers=%d: partitioned solution invalid: %v", tc.bench, workers, err)
			}
			b := solutionBytes(t, resp.Solution)
			if ref == nil {
				ref, refGTR = b, resp.Report.GTRMax
				continue
			}
			if resp.Report.GTRMax != refGTR || !bytes.Equal(b, ref) {
				t.Fatalf("%s: partitioned solve depends on Workers (gtr %d vs %d, %d vs %d bytes)",
					tc.bench, resp.Report.GTRMax, refGTR, len(b), len(ref))
			}
		}
	}
}

// TestOptionValidation pins the typed validation of the Run-boundary knobs:
// a negative partition count, or a parallelism or partition value set on a
// stage instead of on Options, fails with an *OptionError naming the field
// before any solving starts.
func TestOptionValidation(t *testing.T) {
	in := equivInstance(t, "synopsys01", 0)
	cases := []struct {
		name  string
		opt   Options
		field string
	}{
		{"negative partitions", Options{Partitions: -2}, "partitions"},
		{"stage route workers", Options{Route: RouteOptions{Workers: 2}}, "Route.Workers"},
		{"stage tdm workers", Options{Workers: 2, TDM: TDMOptions{Workers: 2}}, "TDM.Workers"},
		{"stage partitions", Options{Route: RouteOptions{Partitions: 3}}, "Route.Partitions"},
		{"negative stage workers", Options{Route: RouteOptions{Workers: -1}}, "Route.Workers"},
	}
	for _, tc := range cases {
		for _, mode := range []Mode{ModeSingle, ModeAssignOnly} {
			req := Request{Instance: in, Mode: mode, Options: tc.opt}
			if mode == ModeAssignOnly {
				req.Routing = make(Routing, len(in.Nets))
			}
			_, err := Run(context.Background(), req)
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("%s %v: Run returned %v, want *OptionError", tc.name, mode, err)
			}
			if oe.Field != tc.field {
				t.Errorf("%s %v: OptionError.Field = %q, want %q", tc.name, mode, oe.Field, tc.field)
			}
		}
	}
}
