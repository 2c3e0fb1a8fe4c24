package tdmroute

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestSolveIgnoresUnkeyedFields is the solve side of the coordinator's
// content address (internal/coord cacheKey; TestCacheKeySoundness pins the
// key side): every request field the key leaves out — the instance name
// written in the "# instance" header, the deadline, Retain, and the worker
// count — must leave the solution bytes and GTR_max of every cacheable mode
// unchanged, or a cached result could answer a job it does not solve.
// ModeAssignOnly rejects Retain, so it is skipped there.
func TestSolveIgnoresUnkeyedFields(t *testing.T) {
	in := equivInstance(t, "synopsys01", 15)
	single, err := Run(context.Background(), Request{Instance: in, Options: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	routing := single.Solution.Routes

	renamed := in.Clone()
	renamed.Name = in.Name + "-renamed"
	variants := []struct {
		name     string
		deadline bool
		mut      func(*Request)
	}{
		{"instance name", false, func(r *Request) { r.Instance = renamed }},
		{"deadline", true, func(*Request) {}},
		{"retain", false, func(r *Request) { r.Retain = true }},
		{"negative workers", false, func(r *Request) { r.Options.Workers = -3 }},
		{"workers 2", false, func(r *Request) { r.Options.Workers = 2 }},
		{"workers 8", false, func(r *Request) { r.Options.Workers = 8 }},
	}
	for _, mode := range []Mode{ModeSingle, ModeIterative, ModeAssignOnly} {
		base := Request{Instance: in, Mode: mode, Options: Options{Workers: 1}}
		if mode == ModeAssignOnly {
			base.Routing = routing
		}
		want, err := Run(context.Background(), base)
		if err != nil {
			t.Fatalf("%v base: %v", mode, err)
		}
		wantBytes := solutionBytes(t, want.Solution)
		for _, v := range variants {
			if mode == ModeAssignOnly && v.name == "retain" {
				continue
			}
			req := base
			v.mut(&req)
			ctx := context.Background()
			if v.deadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 24*time.Hour)
				defer cancel()
			}
			got, err := Run(ctx, req)
			if err != nil {
				t.Fatalf("%v %s: %v", mode, v.name, err)
			}
			if got.Report.GTRMax != want.Report.GTRMax {
				t.Errorf("%v %s: GTR_max %d, want %d", mode, v.name, got.Report.GTRMax, want.Report.GTRMax)
			}
			if !bytes.Equal(solutionBytes(t, got.Solution), wantBytes) {
				t.Errorf("%v %s: solution bytes differ from the base request's", mode, v.name)
			}
		}
	}
}
