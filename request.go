package tdmroute

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// Mode selects what Run executes.
type Mode int

const (
	// ModeSingle is the paper's one-pass framework (Fig. 2(b)): routing
	// followed by TDM ratio assignment. It is the zero value.
	ModeSingle Mode = iota
	// ModeIterative extends ModeSingle with feedback rounds that rip up and
	// reroute the NetGroup realizing GTR_max (Request.Rounds).
	ModeIterative
	// ModeAssignOnly runs only the TDM ratio assignment on the fixed
	// topology supplied in Request.Routing (the "+TA" experiment).
	ModeAssignOnly
	// ModeDelta re-solves an ECO edit against retained warm state: the
	// request carries the warm handle of a previous Retain run
	// (Request.Base) plus the edit (Request.Delta), and only the affected
	// nets are re-routed. The instance travels inside the handle;
	// Request.Instance is ignored.
	ModeDelta
)

// String returns the wire name of the mode ("single", "iterative",
// "assign", "delta"); ParseMode is its inverse.
func (m Mode) String() string {
	switch m {
	case ModeSingle:
		return "single"
	case ModeIterative:
		return "iterative"
	case ModeAssignOnly:
		return "assign"
	case ModeDelta:
		return "delta"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode maps a wire name back to its Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "single":
		return ModeSingle, nil
	case "iterative":
		return ModeIterative, nil
	case "assign":
		return ModeAssignOnly, nil
	case "delta":
		return ModeDelta, nil
	}
	return 0, fmt.Errorf("tdmroute: unknown mode %q", s)
}

// ProgressKind tags one Progress event.
type ProgressKind string

const (
	// ProgressLR reports a completed Lagrangian-relaxation iteration (the
	// Fig. 3(b) series): Iter, Z and LB are set.
	ProgressLR ProgressKind = "lr"
	// ProgressRound reports the start of a feedback round (ModeIterative
	// only): Round is set.
	ProgressRound ProgressKind = "round"
)

// Progress is one solver progress event delivered to Request.OnProgress.
type Progress struct {
	Kind ProgressKind
	// Round is the number of feedback rounds started so far: 0 while the
	// base solve runs, r+1 once round r has begun.
	Round int
	// Iter, Z, LB carry the LR convergence series for ProgressLR events.
	Iter int
	Z    float64
	LB   float64
}

// Request describes one solve.
type Request struct {
	// Instance is the problem instance (required).
	Instance *Instance
	// Mode selects the pipeline; the zero value is ModeSingle.
	Mode Mode
	// Options configures both pipeline stages; only Options.TDM and
	// Options.Workers apply to ModeAssignOnly. Worker counts are normalized
	// exactly once, at the Run boundary: Options.Workers fans into both
	// stages and non-positive counts run on the calling goroutine, in every
	// mode.
	Options Options
	// Rounds is the feedback-round budget for ModeIterative (0 selects 3).
	Rounds int
	// Routing is the fixed topology required by ModeAssignOnly and ignored
	// by the other modes.
	Routing Routing
	// OnProgress, when non-nil, receives solver progress events: every LR
	// iteration and every feedback-round start. It is invoked synchronously
	// on the solving goroutine and must be cheap. It composes with
	// Options.TDM.Trace; both fire when both are set.
	OnProgress func(Progress)

	// Retain asks Run to return the solver's warm state — routing and TDM
	// sessions plus the captured multipliers — in Response.Warm for later
	// ModeDelta requests. Supported by ModeSingle and ModeIterative; the
	// state is returned only when Run succeeds (degraded incumbents retain,
	// hard errors do not). Every ModeSingle and ModeIterative solve runs on
	// these sessions, so Retain changes only whether the handle is returned
	// (and whether a ModeSingle solve keeps its multipliers), never the
	// solution.
	Retain bool
	// Base is the warm handle a ModeDelta request re-solves against
	// (required for ModeDelta, ignored otherwise).
	Base *WarmHandle
	// Delta is the ECO edit a ModeDelta request applies (required for
	// ModeDelta, ignored otherwise).
	Delta *Delta

	// onRound, when non-nil, is invoked at the start of every feedback
	// round, after the round's context check and before the OnProgress
	// round event. It exists so the equivalence tests can trigger
	// deterministic mid-round cancellation; both the session implementation
	// and the cold reference honor it at the same point.
	onRound func(round int)
}

// Response is the outcome of Run: one shape for every mode, so callers (and
// the serve package's JSON schema) handle a single type. Mode-specific
// fields are zero when they do not apply.
type Response struct {
	// Mode echoes the request's mode.
	Mode Mode
	// Solution is the legal solution (ValidateSolution passes), possibly a
	// best-so-far incumbent when Degraded is non-nil.
	Solution *Solution
	// Report carries the Table II metrics of the TDM assignment.
	Report Report
	// RouteStats reports routing-stage work (zero for ModeAssignOnly).
	RouteStats RouteStats
	// Times is the per-stage wall breakdown (Fig. 3(a)).
	Times StageTimes
	// Degraded is non-nil when the run was interrupted and Solution is a
	// best-so-far incumbent; nil means the full optimization budget ran.
	Degraded *Degraded
	// RoundsRun / RoundsKept / InitialGTR report the feedback loop
	// (ModeIterative only).
	RoundsRun  int
	RoundsKept int
	// InitialGTR is the single-pass GTR_max before any feedback round.
	InitialGTR int64
	// Perf holds the process-level counters of the solve (peak RSS,
	// allocation count), filled by Run for every mode.
	Perf Perf
	// Warm is the retained warm state when the request asked for it
	// (Request.Retain) and after every successful ModeDelta solve (the same
	// handle, ready for the next delta). It never travels over the wire:
	// MarshalJSON omits it, and the serve layer pins handles to the node
	// that built them.
	Warm *WarmHandle
}

// Run executes one request. It is the single context-first entry point of
// the package: cancellation and deadlines are observed at deterministic
// iteration boundaries and degrade the run to its best-so-far legal
// incumbent (Response.Degraded describes the interruption) instead of
// failing. An error is returned only when no legal incumbent can exist —
// a malformed request, cancellation before initial routing completes, or a
// panic before legalization. For ModeIterative a hard error after the base
// solve returns the incumbent Response alongside the error; callers must
// check the error first.
func Run(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Instance == nil && req.Mode != ModeDelta {
		return nil, errors.New("tdmroute: Run: nil Instance")
	}
	opt, err := req.Options.normalized()
	if err != nil {
		return nil, err
	}
	req.Options = opt
	req = req.wireProgress()
	allocs0 := heapAllocs()
	resp, err := dispatch(ctx, req)
	if resp != nil {
		resp.Perf = Perf{Allocs: heapAllocs() - allocs0, PeakRSSBytes: peakRSSBytes()}
	}
	return resp, err
}

// dispatch runs the mode-specific pipeline of an already-normalized request.
func dispatch(ctx context.Context, req Request) (*Response, error) {
	switch req.Mode {
	case ModeSingle, ModeIterative:
		// Both modes solve on one routing session and one TDM session,
		// held in a warm handle that Run returns only when Retain asks.
		h := &WarmHandle{
			in:  req.Instance,
			opt: req.Options,
			rs:  route.NewSession(req.Instance, req.Options.Route),
			ts:  tdm.NewSession(req.Instance),
		}
		var resp *Response
		var err error
		if req.Mode == ModeIterative {
			resp, err = runIterative(ctx, req, h)
		} else {
			lambda := &h.lambda
			if !req.Retain {
				lambda = nil // no later solve warm-starts from a plain run
			}
			resp, err = solveBaseSession(ctx, h, lambda)
		}
		if err == nil && req.Retain {
			resp.Warm = h
		}
		return resp, err

	case ModeAssignOnly:
		if req.Retain {
			return nil, errors.New("tdmroute: Run: Retain is not supported for ModeAssignOnly (there is no routing state to retain)")
		}
		return runAssignOnly(ctx, req)

	case ModeDelta:
		return runDelta(ctx, req)

	default:
		return nil, fmt.Errorf("tdmroute: Run: unknown mode %d", int(req.Mode))
	}
}

// runAssignOnly is the ModeAssignOnly arm of Run: the TDM ratio assignment
// alone on the request's fixed topology, on a fresh TDM session. It
// computes exactly what tdm.Assign computes but with the LR /
// legalize+refine wall split and the Degraded attribution the other modes
// report.
func runAssignOnly(ctx context.Context, req Request) (*Response, error) {
	if req.Routing == nil {
		return nil, errors.New("tdmroute: Run: ModeAssignOnly requires a Routing")
	}
	if len(req.Routing) != len(req.Instance.Nets) {
		return nil, fmt.Errorf("tdmroute: routing has %d nets, instance has %d",
			len(req.Routing), len(req.Instance.Nets))
	}
	assign, rep, times, stage, err := assignTimed(ctx, tdm.NewSession(req.Instance), req.Instance, req.Routing, req.Options.TDM)
	if err != nil {
		return nil, err
	}
	return &Response{
		Mode:     ModeAssignOnly,
		Solution: &Solution{Routes: req.Routing, Assign: assign},
		Report:   rep,
		Times:    times,
		Degraded: stageDegraded(ctx, stage, rep),
	}, nil
}

// OptionError is the typed error of request option validation: the options
// analogue of problem.ParseError, carrying the offending field and value so
// callers (CLI flag handling, the serve layer's 400 responses) can report
// bad options without string-matching the message.
type OptionError struct {
	// Field names the offending option: the wire name of a top-level knob
	// ("partitions") or the Go path of a stage field that must be left
	// zero ("Route.Workers").
	Field string
	// Value is the offending value, rendered as text.
	Value string
	// Msg says what was wrong with it.
	Msg string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("tdmroute: option %s=%q: %s", e.Field, e.Value, e.Msg)
}

// normalized validates and canonicalizes the options once, at the Run
// boundary: Workers and Partitions are the only parallelism and partition
// knobs, non-positive worker counts run on the caller, and both are copied
// into the stages. A stage-level value set by the caller would otherwise be
// silently overridden, so it is rejected. Validation failures are
// *OptionError values.
func (o Options) normalized() (Options, error) {
	for _, f := range []struct {
		name, use string
		v         int
	}{
		{"Route.Workers", "Workers", o.Route.Workers},
		{"TDM.Workers", "Workers", o.TDM.Workers},
		{"Route.Partitions", "Partitions", o.Route.Partitions},
	} {
		if f.v != 0 {
			return o, &OptionError{Field: f.name, Value: strconv.Itoa(f.v),
				Msg: "set by Run from Options." + f.use + "; leave it zero"}
		}
	}
	if o.Partitions < 0 {
		return o, &OptionError{Field: "partitions", Value: strconv.Itoa(o.Partitions),
			Msg: "want >= 0 (0 selects auto, 1 disables partitioned routing)"}
	}
	if o.Workers < 0 {
		o.Workers = 1
	}
	o.Route.Workers = o.Workers
	o.TDM.Workers = o.Workers
	o.Route.Partitions = o.Partitions
	return o, nil
}

// wireProgress chains OnProgress into the TDM trace and the round hook.
func (req Request) wireProgress() Request {
	if req.OnProgress == nil {
		return req
	}
	emit := req.OnProgress
	round := new(int) // feedback rounds started; 0 during the base solve
	userTrace := req.Options.TDM.Trace
	req.Options.TDM.Trace = func(iter int, z, lb float64) {
		if userTrace != nil {
			userTrace(iter, z, lb)
		}
		emit(Progress{Kind: ProgressLR, Round: *round, Iter: iter, Z: z, LB: lb})
	}
	userRound := req.onRound
	req.onRound = func(r int) {
		if userRound != nil {
			userRound(r)
		}
		*round = r + 1
		emit(Progress{Kind: ProgressRound, Round: r})
	}
	return req
}

// responseSchemaVersion is the wire schema generation emitted by
// Response.MarshalJSON. Version history:
//
//	1 — the original schema (no schema_version key, no perf block).
//	2 — adds "schema_version" and the stable "perf" block.
//
// UnmarshalJSON accepts both: a missing schema_version means 1.
const responseSchemaVersion = 2

// The JSON schema of a Response. Stage walls are fractional milliseconds;
// the "perf" block repeats them in seconds next to the work counters, all
// derived from the same Response fields. The solution itself is summarized,
// not embedded (fetch it through the solution writers or the server's
// /solution endpoint).
type responseJSON struct {
	SchemaVersion int              `json:"schema_version"`
	Mode          string           `json:"mode"`
	Report        reportJSON       `json:"report"`
	RouteStats    routeStatsJSON   `json:"route_stats"`
	Times         stageTimesJSON   `json:"times"`
	Perf          *perfJSON        `json:"perf,omitempty"`
	Degraded      *degradedJSON    `json:"degraded"`
	RoundsRun     int              `json:"rounds_run"`
	RoundsKept    int              `json:"rounds_kept"`
	InitialGTR    int64            `json:"initial_gtr"`
	Solution      *solutionSumJSON `json:"solution"`
}

type perfJSON struct {
	RouteSec       float64 `json:"route_sec"`
	LRSec          float64 `json:"lr_sec"`
	LegalRefineSec float64 `json:"legal_refine_sec"`
	TotalSec       float64 `json:"total_sec"`
	PeakRSSBytes   int64   `json:"peak_rss_bytes"`
	Allocs         uint64  `json:"allocs"`
	RippedNets     int     `json:"ripped_nets"`
	RevertedRounds int     `json:"reverted_rounds"`
	LRIterations   int     `json:"lr_iterations"`
}

type reportJSON struct {
	Iterations  int     `json:"iterations"`
	Converged   bool    `json:"converged"`
	LowerBound  float64 `json:"lower_bound"`
	RelaxedZ    float64 `json:"relaxed_z"`
	GTRNoRef    int64   `json:"gtr_noref"`
	GTRMax      int64   `json:"gtr_max"`
	Interrupted string  `json:"interrupted,omitempty"`
}

type routeStatsJSON struct {
	RoutedNets    int `json:"routed_nets"`
	RipUpRounds   int `json:"ripup_rounds"`
	RevertedRound int `json:"reverted_rounds"`
	RippedNets    int `json:"ripped_nets"`
}

type stageTimesJSON struct {
	RouteMS       float64 `json:"route_ms"`
	LRMS          float64 `json:"lr_ms"`
	LegalRefineMS float64 `json:"legal_refine_ms"`
	TotalMS       float64 `json:"total_ms"`
}

type degradedJSON struct {
	Stage          string `json:"stage"`
	Cause          string `json:"cause"`
	LRIterations   int    `json:"lr_iterations"`
	FeedbackRounds int    `json:"feedback_rounds"`
	IncumbentGTR   int64  `json:"incumbent_gtr"`
}

type solutionSumJSON struct {
	Nets        int `json:"nets"`
	RoutedEdges int `json:"routed_edges"`
}

// MarshalJSON renders the response in the stable wire schema served by
// tdmroutd: snake_case keys, stage walls in milliseconds, the Degraded
// cause flattened to its message, and the solution summarized by size (the
// full solution travels through the solution writers instead). The schema
// is identical for every mode; mode-specific fields are simply zero.
func (r *Response) MarshalJSON() ([]byte, error) {
	out := responseJSON{
		SchemaVersion: responseSchemaVersion,
		Mode:          r.Mode.String(),
		Report: reportJSON{
			Iterations: r.Report.Iterations,
			Converged:  r.Report.Converged,
			LowerBound: r.Report.LowerBound,
			RelaxedZ:   r.Report.RelaxedZ,
			GTRNoRef:   r.Report.GTRNoRef,
			GTRMax:     r.Report.GTRMax,
		},
		RouteStats: routeStatsJSON{
			RoutedNets:    r.RouteStats.RoutedNets,
			RipUpRounds:   r.RouteStats.RipUpRounds,
			RevertedRound: r.RouteStats.RevertedRound,
			RippedNets:    r.RouteStats.RippedNets,
		},
		Times: stageTimesJSON{
			RouteMS:       durMS(r.Times.Route),
			LRMS:          durMS(r.Times.LR),
			LegalRefineMS: durMS(r.Times.LegalRefine),
			TotalMS:       durMS(r.Times.Total()),
		},
		Perf: &perfJSON{
			RouteSec:       durSec(r.Times.Route),
			LRSec:          durSec(r.Times.LR),
			LegalRefineSec: durSec(r.Times.LegalRefine),
			TotalSec:       durSec(r.Times.Total()),
			PeakRSSBytes:   r.Perf.PeakRSSBytes,
			Allocs:         r.Perf.Allocs,
			RippedNets:     r.RouteStats.RippedNets,
			RevertedRounds: r.RouteStats.RevertedRound,
			LRIterations:   r.Report.Iterations,
		},
		RoundsRun:  r.RoundsRun,
		RoundsKept: r.RoundsKept,
		InitialGTR: r.InitialGTR,
	}
	if r.Report.Interrupted != nil {
		out.Report.Interrupted = r.Report.Interrupted.Error()
	}
	if d := r.Degraded; d != nil {
		out.Degraded = &degradedJSON{
			Stage:          string(d.Stage),
			LRIterations:   d.LRIterations,
			FeedbackRounds: d.FeedbackRounds,
			IncumbentGTR:   d.IncumbentGTR,
		}
		if d.Cause != nil {
			out.Degraded.Cause = d.Cause.Error()
		}
	}
	if r.Solution != nil {
		out.Solution = &solutionSumJSON{
			Nets:        len(r.Solution.Routes),
			RoutedEdges: r.Solution.Routes.NumRoutedEdges(),
		}
	}
	return json.Marshal(out)
}

// durMS converts a duration to fractional milliseconds of whole
// microseconds, the wire resolution of every stage wall.
func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// durSec is durMS in seconds: both count the same whole microseconds, so a
// decoded and re-encoded Response carries the same "perf" bytes.
func durSec(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e6
}

// UnmarshalJSON is the inverse of MarshalJSON as far as the wire schema
// allows: the tdmroutd client reconstructs a Response from the server's
// JSON. Each fact is read from one place: stage walls from "times", work
// counters from "report" and "route_stats", and only the process counters
// from "perf" (its other keys are derived on encode). Error causes come
// back as opaque messages (errors.Is identity does not survive the wire),
// and the solution summary is dropped — the full solution travels through
// the server's solution endpoint instead, so Solution is nil on a decoded
// Response.
func (r *Response) UnmarshalJSON(data []byte) error {
	var in responseJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	// A missing schema_version is the pre-versioning v1 schema; anything
	// beyond the current generation is from a newer server and may carry
	// semantics this decoder would silently drop.
	if in.SchemaVersion > responseSchemaVersion {
		return fmt.Errorf("tdmroute: response schema_version %d is newer than supported %d",
			in.SchemaVersion, responseSchemaVersion)
	}
	mode, err := ParseMode(in.Mode)
	if err != nil {
		return err
	}
	*r = Response{
		Mode: mode,
		Report: Report{
			Iterations: in.Report.Iterations,
			Converged:  in.Report.Converged,
			LowerBound: in.Report.LowerBound,
			RelaxedZ:   in.Report.RelaxedZ,
			GTRNoRef:   in.Report.GTRNoRef,
			GTRMax:     in.Report.GTRMax,
		},
		RouteStats: RouteStats{
			RoutedNets:    in.RouteStats.RoutedNets,
			RipUpRounds:   in.RouteStats.RipUpRounds,
			RevertedRound: in.RouteStats.RevertedRound,
			RippedNets:    in.RouteStats.RippedNets,
		},
		Times: StageTimes{
			Route:       msDuration(in.Times.RouteMS),
			LR:          msDuration(in.Times.LRMS),
			LegalRefine: msDuration(in.Times.LegalRefineMS),
		},
		RoundsRun:  in.RoundsRun,
		RoundsKept: in.RoundsKept,
		InitialGTR: in.InitialGTR,
	}
	if p := in.Perf; p != nil { // absent in v1 payloads
		r.Perf = Perf{PeakRSSBytes: p.PeakRSSBytes, Allocs: p.Allocs}
	}
	if in.Report.Interrupted != "" {
		r.Report.Interrupted = errors.New(in.Report.Interrupted)
	}
	if d := in.Degraded; d != nil {
		r.Degraded = &Degraded{
			Stage:          Stage(d.Stage),
			LRIterations:   d.LRIterations,
			FeedbackRounds: d.FeedbackRounds,
			IncumbentGTR:   d.IncumbentGTR,
		}
		if d.Cause != "" {
			r.Degraded.Cause = errors.New(d.Cause)
		}
	}
	return nil
}

// msDuration converts wire milliseconds back to a duration of whole
// microseconds, the resolution durMS writes. Rounding, not truncating,
// makes the decode exact: 1.001 ms is 1000.9999999999999 µs in float64.
// Values past 2^51 µs (about 71 years) saturate instead of overflowing (the
// conversion is platform-defined past int64), and three saturated stage
// walls still sum to a valid Total.
func msDuration(v float64) time.Duration {
	const maxUS = float64(1 << 51)
	us := math.Round(v * 1000)
	if math.IsNaN(us) || us <= 0 {
		return 0
	}
	return time.Duration(math.Min(us, maxUS)) * time.Microsecond
}
