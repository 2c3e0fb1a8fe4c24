// Package tdmroute is a reproduction of "Routing Topology and Time-Division
// Multiplexing Co-Optimization for Multi-FPGA Systems" (Lin, Tai, Lin,
// Jiang; DAC 2020): a solver for ICCAD 2019 CAD Contest Problem B.
//
// Given a multi-FPGA system (an undirected FPGA graph), a netlist of two- or
// multi-pin nets, and a set of possibly overlapping NetGroups, the solver
// routes every net over the FPGA graph and assigns every routed (net, edge)
// pair a TDM ratio — a positive even integer such that the reciprocals of
// the ratios on each edge sum to at most 1 — minimizing the maximum NetGroup
// TDM ratio (GTR_max).
//
// The pipeline follows the paper:
//
//  1. NetGroup-aware inter-FPGA routing (Sec. III): KMB Steiner routing
//     ordered by net criticality θ(n), followed by φ(g)-driven rip-up and
//     reroute.
//  2. TDM ratio assignment (Sec. IV): Lagrangian relaxation whose
//     subproblem is solved in closed form per edge via the Cauchy–Schwarz
//     inequality, with a Sigmoid + simple-moving-average multiplier update,
//     then legalization and margin-driven refinement.
//
// Basic use:
//
//	in, _ := tdmroute.LoadInstance("bench.txt")
//	res, err := tdmroute.Run(ctx, tdmroute.Request{Instance: in})
//	// res.Solution is legal; res.Report.GTRMax is the objective;
//	// res.Report.LowerBound certifies how far from relaxed-optimal it is.
//
// The stage timings in Response.Times reproduce the runtime breakdown of
// Fig. 3(a); tdm.Options.Trace exposes the convergence series of Fig. 3(b).
package tdmroute

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tdmroute/internal/eval"
	"tdmroute/internal/mux"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
	"tdmroute/internal/timing"
)

// Re-exported model and stage types. The concrete implementations live in
// internal packages; these aliases are the public surface.
type (
	// Instance is a problem instance: FPGA graph, netlist, NetGroups.
	Instance = problem.Instance
	// Net is one routable net (a set of terminal FPGAs).
	Net = problem.Net
	// Group is one NetGroup (a set of net indices).
	Group = problem.Group
	// Routing maps each net to the FPGA-graph edges of its Steiner tree.
	Routing = problem.Routing
	// Assignment holds legalized TDM ratios parallel to a Routing.
	Assignment = problem.Assignment
	// Solution couples a Routing with its Assignment.
	Solution = problem.Solution
	// Stats are instance statistics (the Table I columns).
	Stats = problem.Stats

	// RouteOptions tunes the routing stage (Sec. III).
	RouteOptions = route.Options
	// RouteStats reports routing-stage work.
	RouteStats = route.Stats
	// TDMOptions tunes the TDM assignment stage (Sec. IV).
	TDMOptions = tdm.Options
	// Report carries the Table II metrics of one TDM assignment run.
	Report = tdm.Report

	// TimingModel parameterizes the post-solution delay analysis.
	TimingModel = timing.Model
	// TimingReport is the outcome of AnalyzeTiming.
	TimingReport = timing.Report
)

// AnalyzeTiming estimates per-net and per-group delays of a solved system
// under the hop + multiplexing-wait model (the degradation that motivates
// the paper's objective).
func AnalyzeTiming(in *Instance, sol *Solution, model TimingModel) (*TimingReport, error) {
	return timing.Analyze(in, sol, model)
}

// Legalization domains for TDMOptions.Legal.
const (
	// LegalEven is the contest/paper domain: even integers >= 2.
	LegalEven = tdm.LegalEven
	// LegalPow2 restricts ratios to powers of two (the refs [2][3]
	// domain), keeping per-edge TDM slot frames short.
	LegalPow2 = tdm.LegalPow2
)

// Re-exported I/O and validation entry points.
var (
	ParseInstance    = problem.ParseInstance
	LoadInstance     = problem.LoadInstance
	WriteInstance    = problem.WriteInstance
	SaveInstance     = problem.SaveInstance
	ParseSolution    = problem.ParseSolution
	LoadSolution     = problem.LoadSolution
	WriteSolution    = problem.WriteSolution
	SaveSolution     = problem.SaveSolution
	ParseRouting     = problem.ParseRouting
	WriteRouting     = problem.WriteRouting
	ValidateInstance = problem.ValidateInstance
	ValidateRouting  = problem.ValidateRouting
	ValidateSolution = problem.ValidateSolution
	ComputeStats     = problem.ComputeStats

	// JSON interchange variants of the text formats.
	ParseInstanceJSON = problem.ParseInstanceJSON
	WriteInstanceJSON = problem.WriteInstanceJSON
	ParseSolutionJSON = problem.ParseSolutionJSON
	WriteSolutionJSON = problem.WriteSolutionJSON

	// Binary variants for contest-scale files.
	ParseInstanceBinary = problem.ParseInstanceBinary
	WriteInstanceBinary = problem.WriteInstanceBinary
	ParseSolutionBinary = problem.ParseSolutionBinary
	WriteSolutionBinary = problem.WriteSolutionBinary

	// AuditSolution collects every violation of a solution instead of
	// stopping at the first (the debugging view of ValidateSolution).
	AuditSolution = problem.AuditSolution
	// Congestion summarizes routing pressure on the board.
	Congestion = eval.Congestion
)

// Audit re-exports for the facade.
type (
	// Audit is the structured violation report of AuditSolution.
	Audit = problem.Audit
	// Violation is one entry of an Audit.
	Violation = problem.Violation
)

// Options configures the full co-optimization pipeline. The zero value
// reproduces the paper's published parameters.
type Options struct {
	// Route and TDM tune the two stages. Their parallelism and partition
	// fields (Route.Workers, Route.Partitions, TDM.Workers) are filled from
	// Workers and Partitions at the Run boundary and must be left zero: a
	// non-zero value there is an *OptionError naming the field.
	Route RouteOptions
	TDM   TDMOptions
	// Workers is the most goroutines each stage's parallel loops run on;
	// zero and negative values run them on the calling goroutine. It only
	// schedules fixed work: every byte Run returns is identical for every
	// worker count.
	Workers int
	// Partitions is the spatial region count of partitioned initial routing
	// (RouteOptions.Partitions). 0 selects auto (currently a single region,
	// i.e. the classic wave path — partitioning changes the routing result,
	// so it is strictly opt-in); 1 disables explicitly; negative values fail
	// request validation with an *OptionError.
	Partitions int
}

// StageTimes records wall-clock time per pipeline stage, matching the
// Fig. 3(a) breakdown (parsing and output timing belong to the callers that
// perform I/O; cmd/tdmroute fills them in).
type StageTimes struct {
	Route       time.Duration // inter-FPGA routing
	LR          time.Duration // Lagrangian relaxation
	LegalRefine time.Duration // legalization + refinement
}

// Total returns the sum of the recorded stage times.
func (s StageTimes) Total() time.Duration { return s.Route + s.LR + s.LegalRefine }

// Stage identifies a pipeline stage in a Degraded report.
type Stage string

// Pipeline stages, in execution order.
const (
	StageRoute    Stage = "route"
	StageLR       Stage = "lr"
	StageRefine   Stage = "refine"
	StageFeedback Stage = "feedback"
)

// Degraded reports that a solve was curtailed — by context cancellation, an
// expired deadline, or a contained worker panic — and that the returned
// solution is the best incumbent checkpointed before the interruption rather
// than a full-budget result. The incumbent is always legal
// (ValidateSolution passes); Degraded only qualifies its quality.
type Degraded struct {
	// Stage is the earliest pipeline stage the interruption curtailed.
	// Later stages still run in bounded fallback mode to legalize the
	// incumbent, so a StageRoute degradation does not mean TDM assignment
	// was skipped.
	Stage Stage
	// Cause is the reason the run stopped — context.Canceled,
	// context.DeadlineExceeded, or a *par.PanicError — and is never nil
	// (when no concrete cause was recorded a definite sentinel stands in).
	Cause error
	// LRIterations counts completed Lagrangian-relaxation iterations.
	LRIterations int
	// FeedbackRounds counts feedback rounds started by a ModeIterative run
	// (always 0 in the other modes).
	FeedbackRounds int
	// IncumbentGTR is GTR_max of the returned incumbent solution.
	IncumbentGTR int64
}

func (d *Degraded) String() string {
	return fmt.Sprintf("degraded at stage %s after %d LR iterations (GTR_max %d): %v",
		d.Stage, d.LRIterations, d.IncumbentGTR, d.Cause)
}

// solveBaseSession is the ModeSingle pipeline, and the base solve of
// ModeIterative: routing on h's fresh routing session followed by TDM ratio
// assignment on its TDM session, with h's options already normalized by the
// Run boundary. When lambda is non-nil it receives the final multipliers of
// the LR for a later warm start (a feedback round or a delta solve); a
// plain solve passes nil and keeps none.
func solveBaseSession(ctx context.Context, h *WarmHandle, lambda *[]float64) (*Response, error) {
	res := &Response{Mode: ModeSingle}
	t0 := time.Now()
	var rstats RouteStats
	err := par.Capture(func() error {
		var e error
		_, rstats, e = h.rs.Route(ctx)
		return e
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.RouteStats = rstats
	routeCurtailed := ctx.Err() != nil

	// Snapshot the routing header: the session mutates its live routing on
	// every feedback reroute, while the incumbent must stay frozen.
	routes := h.rs.Routes()
	assign, rep, times, stage, err := assignTimed(ctx, h.ts, h.in, routes, captureLambda(h.opt.TDM, lambda))
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

// captureLambda returns opt with its CaptureLambda storing the final
// multipliers of the LR in *dst and then passing a copy to the caller's own
// CaptureLambda, if any. A nil dst returns opt unchanged.
func captureLambda(opt TDMOptions, dst *[]float64) TDMOptions {
	if dst == nil {
		return opt
	}
	user := opt.CaptureLambda
	opt.CaptureLambda = func(l []float64) {
		*dst = l
		if user != nil {
			user(append([]float64(nil), l...))
		}
	}
	return opt
}

// assignTimed runs the assignment stage — LR on the TDM session ts, then the
// stock legalization and refinement — and splits it into the LR and
// legalization+refinement timings needed by the Fig. 3(a) breakdown. The
// returned stage is "" for a complete run, or the stage the interruption
// curtailed (StageLR or StageRefine); both stage timers are populated even
// on the error path so callers can fold partial work into their totals.
func assignTimed(ctx context.Context, ts *tdm.Session, in *Instance, routes Routing, opt TDMOptions) (Assignment, Report, StageTimes, Stage, error) {
	var times StageTimes
	t0 := time.Now()
	// Run LR and legalization separately from tdm.Session.Assign so the
	// two timers can be split; Session.Assign composes the same calls.
	relaxed, z, lb, iters, converged, stopped := ts.RunLR(ctx, routes, opt)
	times.LR = time.Since(t0)
	if relaxed == nil {
		// No legalizable incumbent: even the bounded fallback pass failed.
		return Assignment{}, Report{}, times, StageLR, stopped
	}

	t1 := time.Now()
	assign, rep, err := tdm.Finish(ctx, in, routes, relaxed, opt)
	times.LegalRefine = time.Since(t1)
	if err != nil {
		return Assignment{}, Report{}, times, StageRefine, err
	}

	rep.Iterations = iters
	rep.Converged = converged
	rep.LowerBound = lb
	rep.RelaxedZ = z
	var stage Stage
	switch {
	case stopped != nil:
		// LR stopped early; Finish may have recorded its own (refine)
		// interruption, but the earlier stage wins the attribution.
		stage = StageLR
		rep.Interrupted = stopped
	case rep.Interrupted != nil:
		stage = StageRefine
	}
	return assign, rep, times, stage, nil
}

// Evaluate returns GTR_max of a solution and the index of a group attaining
// it (-1 when the instance has no groups).
func Evaluate(in *Instance, sol *Solution) (int64, int) {
	return eval.MaxGroupTDM(in, sol)
}

// GroupTDMs returns the TDM ratio of every NetGroup under sol.
func GroupTDMs(in *Instance, sol *Solution) []int64 {
	return eval.GroupTDMs(in, sol)
}

// VerifySchedules performs the semantic check behind the edge constraint:
// for every routed edge it builds the concrete TDM slot schedule of
// Fig. 1(b)(c) and verifies each signal receives exactly its 1/ratio share
// of frame slots. Edges whose ratio set would need a frame longer than
// mux.MaxFrameLen (highly irregular ratios) are counted in skipped rather
// than verified. A non-nil error reports the first unschedulable edge.
func VerifySchedules(in *Instance, sol *Solution) (verified, skipped int, err error) {
	loads := problem.EdgeLoads(in.G.NumEdges(), sol.Routes)
	for e, ls := range loads {
		if len(ls) == 0 {
			continue
		}
		ratios := make([]int64, len(ls))
		for i, l := range ls {
			ratios[i] = sol.Assign.Ratios[l.Net][l.Pos]
		}
		switch err := mux.VerifyEdge(ratios); {
		case err == nil:
			verified++
		case errors.Is(err, mux.ErrFrameTooLong):
			skipped++
		default:
			return verified, skipped, fmt.Errorf("edge %d: %w", e, err)
		}
	}
	return verified, skipped, nil
}
