// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Sec. V) on the synthetic benchmark
// suite — Table I (benchmark statistics), Table II (comparison with the
// emulated contest winners, with and without our TDM ratio assignment),
// Fig. 3(a) (runtime breakdown) and Fig. 3(b) (LR convergence) — plus the
// update-rule ablation called out in DESIGN.md.
package exp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tdmroute"
	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
)

// ErrInterrupted marks an experiment run stopped early by Config.Ctx.
// Functions returning it alongside partial rows completed every row they
// return; the error only says the sweep did not finish.
var ErrInterrupted = errors.New("exp: run interrupted")

// Config selects the workload for an experiment run.
type Config struct {
	// Ctx, when non-nil, bounds the run: experiments stop at the next
	// benchmark boundary once it is cancelled and return the rows
	// completed so far together with ErrInterrupted.
	Ctx context.Context
	// Scale is the suite scale factor (1 = published Table I sizes).
	// Zero selects 0.01, which runs the full Table II in minutes on a
	// laptop.
	Scale float64
	// Benchmarks restricts the run to a subset of gen.SuiteNames().
	// Empty means all nine.
	Benchmarks []string
	// MaxIter caps LR iterations (0 = paper default).
	MaxIter int
	// RipUpRounds forwards to the router (0 = default).
	RipUpRounds int
	// Workers forwards to both pipeline stages (0 = one goroutine); it
	// does not change the results.
	Workers int
	// Partitions forwards to Options.Partitions (0 = auto, 1 = off).
	Partitions int
	// Progress, when non-nil, receives one line per completed benchmark
	// — long full-scale runs otherwise produce no output until the final
	// table renders.
	Progress func(line string)
}

// ctx returns the configured context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// interrupted wraps a stop cause under ErrInterrupted so callers can test
// with errors.Is(err, ErrInterrupted). A nil cause defaults to the
// context's own error.
func (c Config) interrupted(cause error) error {
	if cause == nil {
		cause = c.ctx().Err()
	}
	return fmt.Errorf("%w: %v", ErrInterrupted, cause)
}

func (c Config) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = gen.SuiteNames()
	}
	return c
}

// epsilonFor mirrors the paper's setting: 0.27% for synopsys01..05, 0.05%
// for the larger benchmarks whose lower bounds are much larger.
func epsilonFor(name string) float64 {
	switch name {
	case "synopsys01", "synopsys02", "synopsys03", "synopsys04", "synopsys05":
		return 0.0027
	default:
		return 0.0005
	}
}

// instances generates the configured benchmarks.
func (c Config) instances() ([]*problem.Instance, error) {
	out := make([]*problem.Instance, 0, len(c.Benchmarks))
	for _, name := range c.Benchmarks {
		cfg, err := gen.SuiteConfig(name, c.Scale)
		if err != nil {
			return nil, err
		}
		in, err := gen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		// Keep the bare benchmark name for ε selection and display.
		in.Name = name
		out = append(out, in)
	}
	return out, nil
}

// tdmOptions configures the TDM stage for the figures that drive it
// directly; solveOptions is the Run-boundary form.
func (c Config) tdmOptions(bench string) tdmroute.TDMOptions {
	return tdmroute.TDMOptions{Epsilon: epsilonFor(bench), MaxIter: c.MaxIter, Workers: c.Workers}
}

// solveOptions configures a Run. Worker counts go through Options.Workers
// alone; Run fans them into both stages.
func (c Config) solveOptions(bench string) tdmroute.Options {
	return tdmroute.Options{
		Route:      tdmroute.RouteOptions{RipUpRounds: c.RipUpRounds},
		TDM:        tdmroute.TDMOptions{Epsilon: epsilonFor(bench), MaxIter: c.MaxIter},
		Workers:    c.Workers,
		Partitions: c.Partitions,
	}
}

// TableI returns the benchmark statistics rows.
func TableI(cfg Config) ([]problem.Stats, error) {
	cfg = cfg.withDefaults()
	ins, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	rows := make([]problem.Stats, len(ins))
	for i, in := range ins {
		rows[i] = problem.ComputeStats(in)
	}
	return rows, nil
}

// FlowResult is one winner row of Table II: the entry's own solution.
type FlowResult struct {
	GTRMax  int64
	TimeAll time.Duration
}

// TAResult is one "+TA" row: our TDM ratio assignment applied to a fixed
// topology.
type TAResult struct {
	GTRMax int64
	LB     float64
	Iter   int
	TimeTA time.Duration
}

// BenchResult aggregates all Table II rows of one benchmark.
type BenchResult struct {
	Name      string
	Winners   []FlowResult // by Winners() order: 1st, 2nd, 3rd
	WinnersTA []TAResult
	// Ours.
	OursNoRef   int64
	Ours        TAResult
	OursTimeAll time.Duration
}

// WinnerFlow abstracts the three emulated entries so exp does not import
// baseline directly in its public surface; cmd wiring supplies them.
type WinnerFlow struct {
	Name   string
	Route  func(in *problem.Instance) (problem.Routing, error)
	Assign func(in *problem.Instance, routes problem.Routing) problem.Assignment
}

// TableII runs the full comparison on the configured suite.
func TableII(cfg Config, winners []WinnerFlow) ([]BenchResult, error) {
	cfg = cfg.withDefaults()
	ins, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	results := make([]BenchResult, 0, len(ins))
	for _, in := range ins {
		if cfg.ctx().Err() != nil {
			return results, cfg.interrupted(nil)
		}
		res, err := runBench(cfg, in, winners)
		if err != nil {
			return results, fmt.Errorf("%s: %w", in.Name, err)
		}
		results = append(results, res)
		cfg.progress("%s done: ours GTR %d (LB %.0f) in %.1fs",
			in.Name, res.Ours.GTRMax, res.Ours.LB, res.OursTimeAll.Seconds())
	}
	return results, nil
}

func runBench(cfg Config, in *problem.Instance, winners []WinnerFlow) (BenchResult, error) {
	res := BenchResult{Name: in.Name}
	taOpts := cfg.solveOptions(in.Name)

	for _, w := range winners {
		t0 := time.Now()
		routes, err := w.Route(in)
		if err != nil {
			return res, fmt.Errorf("%s route: %w", w.Name, err)
		}
		assign := w.Assign(in, routes)
		elapsed := time.Since(t0)
		sol := &problem.Solution{Routes: routes, Assign: assign}
		gtr, _ := tdmroute.Evaluate(in, sol)
		res.Winners = append(res.Winners, FlowResult{GTRMax: gtr, TimeAll: elapsed})

		// "+TA": our assignment on the winner's topology.
		t1 := time.Now()
		ta, err := tdmroute.Run(cfg.ctx(), tdmroute.Request{
			Instance: in,
			Mode:     tdmroute.ModeAssignOnly,
			Options:  taOpts,
			Routing:  routes,
		})
		if err != nil {
			return res, fmt.Errorf("%s+TA: %w", w.Name, err)
		}
		rep := ta.Report
		if rep.Interrupted != nil {
			// A curtailed assignment would publish a misleading Table II
			// row; report the partial sweep instead.
			return res, cfg.interrupted(rep.Interrupted)
		}
		res.WinnersTA = append(res.WinnersTA, TAResult{
			GTRMax: rep.GTRMax,
			LB:     rep.LowerBound,
			Iter:   rep.Iterations,
			TimeTA: time.Since(t1),
		})
	}

	// Ours: the full framework.
	t0 := time.Now()
	solved, err := tdmroute.Run(cfg.ctx(), tdmroute.Request{Instance: in, Options: cfg.solveOptions(in.Name)})
	if err != nil {
		return res, fmt.Errorf("ours: %w", err)
	}
	if solved.Degraded != nil {
		return res, cfg.interrupted(solved.Degraded.Cause)
	}
	res.OursTimeAll = time.Since(t0)
	res.OursNoRef = solved.Report.GTRNoRef
	res.Ours = TAResult{
		GTRMax: solved.Report.GTRMax,
		LB:     solved.Report.LowerBound,
		Iter:   solved.Report.Iterations,
		TimeTA: solved.Times.LR + solved.Times.LegalRefine,
	}
	return res, nil
}

// GeoMeanRatios returns, for each winner (and winner+TA), the geometric
// mean over benchmarks of GTR_max relative to ours — the "Ratio" column of
// Table II.
func GeoMeanRatios(results []BenchResult) (winners, winnersTA []float64) {
	if len(results) == 0 {
		return nil, nil
	}
	k := len(results[0].Winners)
	winners = make([]float64, k)
	winnersTA = make([]float64, k)
	for i := 0; i < k; i++ {
		var logSum, logSumTA float64
		for _, r := range results {
			ours := float64(r.Ours.GTRMax)
			if ours <= 0 {
				continue
			}
			logSum += logRatio(float64(r.Winners[i].GTRMax), ours)
			logSumTA += logRatio(float64(r.WinnersTA[i].GTRMax), ours)
		}
		n := float64(len(results))
		winners[i] = expf(logSum / n)
		winnersTA[i] = expf(logSumTA / n)
	}
	return winners, winnersTA
}
