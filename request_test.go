package tdmroute

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
)

func requestInstance(t *testing.T) *Instance {
	t.Helper()
	cfg, err := gen.SuiteConfig("synopsys01", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRunNormalizesWorkers pins the worker normalization at the Run
// boundary: Options.Workers is the only worker knob, and zero and negative
// counts behave as sequential in every mode, ModeAssignOnly included. Each
// response also echoes its mode.
func TestRunNormalizesWorkers(t *testing.T) {
	in := requestInstance(t)
	base, err := Run(context.Background(), Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	routes := base.Solution.Routes

	for _, mode := range []Mode{ModeSingle, ModeIterative, ModeAssignOnly} {
		var ref []byte
		for _, workers := range []int{1, 0, -7} {
			req := Request{
				Instance: in,
				Mode:     mode,
				Options:  Options{Workers: workers},
			}
			if mode == ModeIterative {
				req.Rounds = 1
			}
			if mode == ModeAssignOnly {
				req.Routing = routes
			}
			resp, err := Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if resp.Mode != mode {
				t.Fatalf("%v workers=%d: Response.Mode = %v", mode, workers, resp.Mode)
			}
			b := solutionBytes(t, resp.Solution)
			if ref == nil {
				ref = b
			} else if !bytes.Equal(ref, b) {
				t.Fatalf("%v: workers=%d diverged from workers=1", mode, workers)
			}
		}
	}
}

// TestRunPerfCounters checks that the process-level counters of
// Response.Perf are live: a solve allocates, and on Linux the peak resident
// set size is reported.
func TestRunPerfCounters(t *testing.T) {
	resp, err := Run(context.Background(), Request{Instance: requestInstance(t)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Perf.Allocs == 0 {
		t.Error("Perf.Allocs = 0 for a full solve")
	}
	if runtime.GOOS == "linux" && resp.Perf.PeakRSSBytes <= 0 {
		t.Errorf("Perf.PeakRSSBytes = %d on linux", resp.Perf.PeakRSSBytes)
	}
}

// TestRunRequestValidation covers the malformed-request errors.
func TestRunRequestValidation(t *testing.T) {
	in := requestInstance(t)
	if _, err := Run(context.Background(), Request{}); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := Run(context.Background(), Request{Instance: in, Mode: Mode(42)}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Run(context.Background(), Request{Instance: in, Mode: ModeAssignOnly}); err == nil {
		t.Error("ModeAssignOnly without routing accepted")
	}
	if _, err := Run(context.Background(), Request{
		Instance: in, Mode: ModeAssignOnly, Routing: Routing{{0}},
	}); err == nil {
		t.Error("ModeAssignOnly with short routing accepted")
	}
}

// TestRunProgressEvents checks the OnProgress stream: LR iterations arrive
// in order, round events precede the rounds' LR work, and the user's own
// TDM trace still fires alongside.
func TestRunProgressEvents(t *testing.T) {
	in := requestInstance(t)
	var events []Progress
	traced := 0
	_, err := Run(context.Background(), Request{
		Instance: in,
		Mode:     ModeIterative,
		Rounds:   2,
		Options: Options{
			TDM: TDMOptions{Trace: func(iter int, z, lb float64) { traced++ }},
		},
		OnProgress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var lr, rounds int
	maxRound := 0
	for _, e := range events {
		switch e.Kind {
		case ProgressLR:
			lr++
			if e.Round < maxRound {
				t.Fatalf("LR event round went backwards: %d after %d", e.Round, maxRound)
			}
		case ProgressRound:
			rounds++
			maxRound = e.Round + 1
		default:
			t.Fatalf("unknown progress kind %q", e.Kind)
		}
	}
	if lr == 0 {
		t.Error("no LR progress events")
	}
	if rounds == 0 {
		t.Error("no round progress events")
	}
	if traced != lr {
		t.Errorf("user trace fired %d times, OnProgress saw %d LR events", traced, lr)
	}
}

// TestResponseMarshalJSONGolden pins the wire schema of a Response: one
// JSON shape for every mode, snake_case keys, milliseconds for walls, the
// Degraded cause flattened to its message, and the solution summarized.
func TestResponseMarshalJSONGolden(t *testing.T) {
	resp := &Response{
		Mode: ModeIterative,
		Solution: &Solution{
			Routes: Routing{{0, 1}, {2}},
			Assign: Assignment{Ratios: [][]int64{{2, 4}, {6}}},
		},
		Report: Report{
			Iterations:  41,
			Converged:   true,
			LowerBound:  11.5,
			RelaxedZ:    12.25,
			GTRNoRef:    16,
			GTRMax:      14,
			Interrupted: context.Canceled,
		},
		RouteStats: RouteStats{RoutedNets: 2, RipUpRounds: 3, RevertedRound: 1, RippedNets: 5},
		Times: StageTimes{
			Route:       1500 * time.Microsecond,
			LR:          2250 * time.Microsecond,
			LegalRefine: 250 * time.Microsecond,
		},
		Degraded: &Degraded{
			Stage:          StageFeedback,
			Cause:          context.Canceled,
			LRIterations:   41,
			FeedbackRounds: 2,
			IncumbentGTR:   14,
		},
		RoundsRun:  2,
		RoundsKept: 1,
		InitialGTR: 16,
		Perf:       Perf{PeakRSSBytes: 1048576, Allocs: 12345},
	}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"schema_version":2,"mode":"iterative",` +
		`"report":{"iterations":41,"converged":true,"lower_bound":11.5,"relaxed_z":12.25,"gtr_noref":16,"gtr_max":14,"interrupted":"context canceled"},` +
		`"route_stats":{"routed_nets":2,"ripup_rounds":3,"reverted_rounds":1,"ripped_nets":5},` +
		`"times":{"route_ms":1.5,"lr_ms":2.25,"legal_refine_ms":0.25,"total_ms":4},` +
		`"perf":{"route_sec":0.0015,"lr_sec":0.00225,"legal_refine_sec":0.00025,"total_sec":0.004,"peak_rss_bytes":1048576,"allocs":12345,"ripped_nets":5,"reverted_rounds":1,"lr_iterations":41},` +
		`"degraded":{"stage":"feedback","cause":"context canceled","lr_iterations":41,"feedback_rounds":2,"incumbent_gtr":14},` +
		`"rounds_run":2,"rounds_kept":1,"initial_gtr":16,` +
		`"solution":{"nets":2,"routed_edges":3}}`
	if string(got) != want {
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}

	// A clean single-mode response: null degraded, zero iterate fields —
	// the same schema, not a different one.
	clean := &Response{Mode: ModeSingle}
	got, err = json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	const wantClean = `{"schema_version":2,"mode":"single",` +
		`"report":{"iterations":0,"converged":false,"lower_bound":0,"relaxed_z":0,"gtr_noref":0,"gtr_max":0},` +
		`"route_stats":{"routed_nets":0,"ripup_rounds":0,"reverted_rounds":0,"ripped_nets":0},` +
		`"times":{"route_ms":0,"lr_ms":0,"legal_refine_ms":0,"total_ms":0},` +
		`"perf":{"route_sec":0,"lr_sec":0,"legal_refine_sec":0,"total_sec":0,"peak_rss_bytes":0,"allocs":0,"ripped_nets":0,"reverted_rounds":0,"lr_iterations":0},` +
		`"degraded":null,"rounds_run":0,"rounds_kept":0,"initial_gtr":0,"solution":null}`
	if string(got) != wantClean {
		t.Errorf("clean golden mismatch:\n got: %s\nwant: %s", got, wantClean)
	}

	// A degraded delta response whose stage was curtailed without a recorded
	// cause: degradedCause substitutes a definite sentinel, so the wire
	// schema never carries an empty cause alongside a non-null degraded
	// (regression: runAssignOnly used to build Degraded with a nil Cause).
	curtailed := &Response{
		Mode: ModeDelta,
		Degraded: &Degraded{
			Stage:        StageLR,
			Cause:        degradedCause(Report{}, context.Background()),
			LRIterations: 7,
			IncumbentGTR: 20,
		},
	}
	got, err = json.Marshal(curtailed)
	if err != nil {
		t.Fatal(err)
	}
	const wantCurtailed = `{"schema_version":2,"mode":"delta",` +
		`"report":{"iterations":0,"converged":false,"lower_bound":0,"relaxed_z":0,"gtr_noref":0,"gtr_max":0},` +
		`"route_stats":{"routed_nets":0,"ripup_rounds":0,"reverted_rounds":0,"ripped_nets":0},` +
		`"times":{"route_ms":0,"lr_ms":0,"legal_refine_ms":0,"total_ms":0},` +
		`"perf":{"route_sec":0,"lr_sec":0,"legal_refine_sec":0,"total_sec":0,"peak_rss_bytes":0,"allocs":0,"ripped_nets":0,"reverted_rounds":0,"lr_iterations":0},` +
		`"degraded":{"stage":"lr","cause":"tdmroute: run curtailed without a recorded cause","lr_iterations":7,"feedback_rounds":0,"incumbent_gtr":20},` +
		`"rounds_run":0,"rounds_kept":0,"initial_gtr":0,"solution":null}`
	if string(got) != wantCurtailed {
		t.Errorf("curtailed golden mismatch:\n got: %s\nwant: %s", got, wantCurtailed)
	}
}

// TestDegradedCauseNeverNil pins the satellite fix for the nil-Cause
// Degraded: whichever combination of interruption record and context state a
// curtailed stage ends in, the attributed cause is definite.
func TestDegradedCauseNeverNil(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("boom")
	cases := []struct {
		name string
		rep  Report
		ctx  context.Context
		want error
	}{
		{"interrupted wins", Report{Interrupted: boom}, cancelled, boom},
		{"context next", Report{}, cancelled, context.Canceled},
		{"sentinel fallback", Report{}, context.Background(), errCurtailed},
	}
	for _, tc := range cases {
		got := degradedCause(tc.rep, tc.ctx)
		if got == nil {
			t.Fatalf("%s: degradedCause returned nil", tc.name)
		}
		if !errors.Is(got, tc.want) {
			t.Errorf("%s: degradedCause = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestResponseJSONRoundTrip checks UnmarshalJSON against MarshalJSON: a
// decoded Response re-encodes to the identical wire bytes (the solution
// summary, which decoding drops, excepted), so the tdmroutd client sees
// exactly what the server reported.
func TestResponseJSONRoundTrip(t *testing.T) {
	resp := &Response{
		Mode: ModeIterative,
		Report: Report{
			Iterations: 41, Converged: true, LowerBound: 11.5, RelaxedZ: 12.25,
			GTRNoRef: 16, GTRMax: 14, Interrupted: context.Canceled,
		},
		RouteStats: RouteStats{RoutedNets: 2, RipUpRounds: 3, RevertedRound: 1, RippedNets: 5},
		Times: StageTimes{
			Route:       1500 * time.Microsecond,
			LR:          2250 * time.Microsecond,
			LegalRefine: 1001 * time.Microsecond,
		},
		Degraded: &Degraded{
			Stage: StageFeedback, Cause: context.Canceled,
			LRIterations: 41, FeedbackRounds: 2, IncumbentGTR: 14,
		},
		RoundsRun: 2, RoundsKept: 1, InitialGTR: 16,
		Perf: Perf{PeakRSSBytes: 2097152, Allocs: 999},
	}
	wire, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != string(again) {
		t.Errorf("round trip diverged:\n out: %s\nback: %s", wire, again)
	}
	if back.Times != resp.Times {
		t.Errorf("Times = %+v, want %+v", back.Times, resp.Times)
	}
	if back.Degraded == nil || back.Degraded.Cause == nil ||
		back.Degraded.Cause.Error() != context.Canceled.Error() {
		t.Errorf("Degraded did not survive the round trip: %+v", back.Degraded)
	}
	if back.Perf != resp.Perf {
		t.Errorf("Perf did not survive the round trip: %+v vs %+v", back.Perf, resp.Perf)
	}
}

// TestMSDurationWholeMicros sweeps whole-microsecond stage walls through
// the wire conversion: every wall decodes to the microseconds it was
// encoded from, so a relay that decodes and re-encodes a Response (the
// coordinator does, for every job it proxies) passes the same times on.
func TestMSDurationWholeMicros(t *testing.T) {
	check := func(us int64) {
		d := time.Duration(us) * time.Microsecond
		if got := durMS(msDuration(durMS(d))); got != durMS(d) {
			t.Fatalf("%d µs: %v ms decodes and re-encodes as %v ms", us, durMS(d), got)
		}
	}
	for us := int64(0); us < 5_000_000; us++ {
		check(us)
	}
	for us := int64(1) << 40; us < 1<<40+1000; us++ {
		check(us)
	}
	if sat := (StageTimes{msDuration(math.Inf(1)), msDuration(1e300), msDuration(1e300)}); sat.Route <= 0 || sat.Total() <= 0 {
		t.Errorf("saturated walls %+v total %v, want positive durations", sat, sat.Total())
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1), -1, 0} {
		if got := msDuration(v); got != 0 {
			t.Errorf("msDuration(%v) = %v, want 0", v, got)
		}
	}
}

// TestResponseUnmarshalV1 pins backward compatibility of the decoder: a
// schema-1 payload (no schema_version key, no perf block) from an older
// server still decodes, with a zero Perf. A payload from a newer schema
// generation is rejected rather than silently truncated.
func TestResponseUnmarshalV1(t *testing.T) {
	const v1 = `{"mode":"single",` +
		`"report":{"iterations":12,"converged":true,"lower_bound":3,"relaxed_z":3.5,"gtr_noref":8,"gtr_max":6},` +
		`"route_stats":{"routed_nets":4,"ripup_rounds":2,"reverted_rounds":0,"ripped_nets":1},` +
		`"times":{"route_ms":1,"lr_ms":2,"legal_refine_ms":3,"total_ms":6},` +
		`"degraded":null,"rounds_run":0,"rounds_kept":0,"initial_gtr":0,"solution":null}`
	var r Response
	if err := json.Unmarshal([]byte(v1), &r); err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	if r.Report.GTRMax != 6 || r.RouteStats.RoutedNets != 4 {
		t.Errorf("v1 payload decoded wrong: %+v", r)
	}
	if r.Perf != (Perf{}) {
		t.Errorf("v1 payload produced a non-zero Perf: %+v", r.Perf)
	}

	if err := json.Unmarshal([]byte(`{"schema_version":99,"mode":"single"}`), &r); err == nil {
		t.Error("schema_version 99 was accepted")
	}
}

// TestRunDegradedDeadline checks the anytime contract through Run: a
// deadline that expires mid-solve still yields a legal solution with
// Degraded populated.
func TestRunDegradedDeadline(t *testing.T) {
	in := requestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iters := 0
	resp, err := Run(ctx, Request{
		Instance: in,
		Options: Options{TDM: TDMOptions{Trace: func(int, float64, float64) {
			iters++
			if iters == 3 {
				cancel()
			}
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == nil {
		t.Fatal("mid-LR cancellation did not set Degraded")
	}
	if !errors.Is(resp.Degraded.Cause, context.Canceled) {
		t.Fatalf("Degraded.Cause = %v, want context.Canceled", resp.Degraded.Cause)
	}
	if err := problem.ValidateSolution(in, resp.Solution); err != nil {
		t.Fatalf("degraded solution invalid: %v", err)
	}
}
