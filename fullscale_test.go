package tdmroute_test

import (
	"testing"

	"tdmroute"
)

// TestFullScaleSynopsys01 exercises the complete framework at the PUBLISHED
// size of the smallest contest benchmark: 68,500 nets, 40,600 NetGroups on
// the 43-FPGA / 214-edge board. It takes a couple of seconds, so it is
// skipped under -short.
func TestFullScaleSynopsys01(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped in -short mode")
	}
	in := genInstance(t, "synopsys01", 1.0)
	s := tdmroute.ComputeStats(in)
	if s.Nets != 68_500 || s.NetGroups != 40_600 {
		t.Fatalf("stats = %+v", s)
	}
	res := solve(t, tdmroute.Request{Instance: in})
	if err := tdmroute.ValidateSolution(in, res.Solution); err != nil {
		t.Fatalf("full-scale solution invalid: %v", err)
	}
	gap := (float64(res.Report.GTRMax) - res.Report.LowerBound) / res.Report.LowerBound
	// The paper's ε is 0.27% on the relaxation; at this ratio magnitude
	// (thousands) legalization adds well under 1%.
	if gap > 0.02 {
		t.Errorf("full-scale optimality gap %.4f exceeds 2%%", gap)
	}
	if res.Report.GTRMax > res.Report.GTRNoRef {
		t.Errorf("refinement worsened: %d > %d", res.Report.GTRMax, res.Report.GTRNoRef)
	}
	t.Logf("full scale: GTR %d (noref %d), LB %.0f, gap %.3f%%, %d iters, route %v, LR %v",
		res.Report.GTRMax, res.Report.GTRNoRef, res.Report.LowerBound,
		100*gap, res.Report.Iterations, res.Times.Route, res.Times.LR)
}

// TestFullScalePlusTA reproduces the "+TA" experiment at published size:
// a baseline topology is improved by the LR assignment to within the
// legalization gap of its own topology bound.
func TestFullScalePlusTA(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped in -short mode")
	}
	in := genInstance(t, "synopsys02", 1.0)
	res := solve(t, tdmroute.Request{Instance: in})
	ta := solve(t, tdmroute.Request{Instance: in, Mode: tdmroute.ModeAssignOnly, Routing: res.Solution.Routes})
	if err := tdmroute.ValidateSolution(in, ta.Solution); err != nil {
		t.Fatal(err)
	}
	if ta.Report.GTRMax != res.Report.GTRMax {
		t.Errorf("re-assignment on same topology differs: %d vs %d", ta.Report.GTRMax, res.Report.GTRMax)
	}
}
