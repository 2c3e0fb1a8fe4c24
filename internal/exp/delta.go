package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"tdmroute"
	"tdmroute/internal/problem"
)

// DeltaRow is one benchmark's ECO cost measurement: the same small edit
// is solved twice — once through the warm ModeDelta path against a retained
// base solve, once by the full cold pipeline on the patched instance — and
// the row reports both wall clocks. The edit is bias-free (nets only), so
// the patched instance captures it completely and the cold run solves the
// exact same problem the delta path does.
type DeltaRow struct {
	Bench string  `json:"bench"`
	Scale float64 `json:"scale"`
	// TotalNets counts the patched instance's nets; EditedNets counts the
	// nets the delta itself adds or removes (the re-solve additionally
	// reroutes neighbors sharing edges with them).
	TotalNets  int `json:"total_nets"`
	EditedNets int `json:"edited_nets"`
	// Wall times in milliseconds, best of reps. BaseWallMS is the retained
	// base solve the delta amortizes against; ColdWallMS is the from-scratch
	// pipeline on the patched instance; DeltaWallMS is the warm re-solve.
	BaseWallMS  float64 `json:"base_wall_ms"`
	ColdWallMS  float64 `json:"cold_wall_ms"`
	DeltaWallMS float64 `json:"delta_wall_ms"`
	// Speedup is ColdWallMS / DeltaWallMS — the factor an ECO saves over
	// re-running the cold pipeline.
	Speedup float64 `json:"speedup"`
	// Final objective of each path. The two may differ slightly: the warm
	// path starts the relaxation from the captured multipliers, the cold
	// path from zero.
	DeltaGTR int64 `json:"delta_gtr"`
	ColdGTR  int64 `json:"cold_gtr"`
}

// DeltaPerf measures the ECO delta re-solve against the cold pipeline on the
// configured suite. Each benchmark is measured reps times (fastest run kept;
// the base solve is repeated per rep because a delta consumes its warm
// state). Cancellation via cfg.Ctx returns the rows completed so far with
// ErrInterrupted.
func DeltaPerf(cfg Config, reps int) ([]DeltaRow, error) {
	cfg = cfg.withDefaults()
	if reps <= 0 {
		reps = 3
	}
	ins, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	var rows []DeltaRow
	for _, in := range ins {
		if cfg.ctx().Err() != nil {
			return rows, cfg.interrupted(nil)
		}
		row, err := deltaBench(cfg, in, reps)
		if err != nil {
			return rows, fmt.Errorf("%s: %w", in.Name, err)
		}
		rows = append(rows, row)
		cfg.progress("%s done: delta %.1fms vs cold %.1fms (%.1fx)",
			in.Name, row.DeltaWallMS, row.ColdWallMS, row.Speedup)
	}
	return rows, nil
}

// ecoEdit builds the deterministic measurement edit for an instance: remove
// its first multi-terminal net and add a fresh 2-pin net between that net's
// first two terminals. No EdgeBias — capacity pressure has no instance-level
// representation, and a biased delta would leave the cold reference solving
// a different problem.
func ecoEdit(in *problem.Instance) (*tdmroute.Delta, error) {
	for n := range in.Nets {
		t := in.Nets[n].Terminals
		if len(t) >= 2 {
			return &tdmroute.Delta{
				RemoveNets: []int{n},
				AddNets:    []tdmroute.Net{{Terminals: []int{t[0], t[1]}}},
			}, nil
		}
	}
	return nil, fmt.Errorf("no multi-terminal net to edit")
}

func deltaBench(cfg Config, in *problem.Instance, reps int) (DeltaRow, error) {
	opt := cfg.solveOptions(in.Name)
	d, err := ecoEdit(in)
	if err != nil {
		return DeltaRow{}, err
	}
	row := DeltaRow{Bench: in.Name, Scale: cfg.Scale, EditedNets: len(d.RemoveNets) + len(d.AddNets)}

	// Warm path: base solve with retention, then the delta re-solve. The
	// delta consumes the warm state, so every rep rebuilds its own base.
	var deltaRes *tdmroute.Response
	var patched *problem.Instance
	for i := 0; i < reps; i++ {
		work := in.Clone()
		t0 := time.Now()
		base, err := tdmroute.Run(cfg.ctx(), tdmroute.Request{Instance: work, Options: opt, Retain: true})
		baseWall := time.Since(t0)
		if err != nil {
			return row, err
		}
		if base.Degraded != nil {
			return row, cfg.interrupted(base.Degraded.Cause)
		}
		t0 = time.Now()
		res, err := tdmroute.Run(cfg.ctx(), tdmroute.Request{Mode: tdmroute.ModeDelta, Base: base.Warm, Delta: d, Options: opt})
		deltaWall := time.Since(t0)
		if err != nil {
			return row, err
		}
		if res.Degraded != nil {
			return row, cfg.interrupted(res.Degraded.Cause)
		}
		if i == 0 || ms(baseWall) < row.BaseWallMS {
			row.BaseWallMS = ms(baseWall)
		}
		if deltaRes == nil || ms(deltaWall) < row.DeltaWallMS {
			row.DeltaWallMS = ms(deltaWall)
			deltaRes = res
			patched = base.Warm.Instance()
		}
	}
	if err := problem.ValidateSolution(patched, deltaRes.Solution); err != nil {
		return row, fmt.Errorf("delta solution invalid: %w", err)
	}
	row.TotalNets = len(patched.Nets)
	row.DeltaGTR = deltaRes.Report.GTRMax

	// Cold reference: the full pipeline on the patched instance.
	for i := 0; i < reps; i++ {
		cold := in.Clone()
		if err := d.Apply(cold); err != nil {
			return row, fmt.Errorf("patching cold instance: %w", err)
		}
		t0 := time.Now()
		res, err := tdmroute.Run(cfg.ctx(), tdmroute.Request{Instance: cold, Options: opt})
		coldWall := time.Since(t0)
		if err != nil {
			return row, err
		}
		if res.Degraded != nil {
			return row, cfg.interrupted(res.Degraded.Cause)
		}
		if i == 0 || ms(coldWall) < row.ColdWallMS {
			row.ColdWallMS = ms(coldWall)
			row.ColdGTR = res.Report.GTRMax
		}
	}
	if row.DeltaWallMS > 0 {
		row.Speedup = row.ColdWallMS / row.DeltaWallMS
	}
	return row, nil
}

// WriteDeltaPerf renders the ECO measurement as a text table with a geomean
// speedup summary line.
func WriteDeltaPerf(w io.Writer, rows []DeltaRow) {
	fmt.Fprintln(w, "ECO delta re-solve vs cold pipeline on the patched instance")
	fmt.Fprintf(w, "%-12s %7s %6s %10s %10s %10s %9s %9s %8s\n",
		"bench", "nets", "edits", "base(ms)", "cold(ms)", "delta(ms)", "coldGTR", "deltaGTR", "speedup")
	logSum, n := 0.0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d %6d %10.1f %10.1f %10.1f %9d %9d %7.1fx\n",
			r.Bench, r.TotalNets, r.EditedNets, r.BaseWallMS, r.ColdWallMS, r.DeltaWallMS,
			r.ColdGTR, r.DeltaGTR, r.Speedup)
		if r.Speedup > 0 {
			logSum += math.Log(r.Speedup)
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(w, "geomean speedup: %.1fx over %d benchmarks\n", math.Exp(logSum/float64(n)), n)
	}
}

// ms converts a duration to fractional milliseconds for the report rows.
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
