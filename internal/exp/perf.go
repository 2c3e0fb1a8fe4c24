package exp

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tdmroute"
	"tdmroute/internal/problem"
)

// PerfRow is one benchmark's row of cmd/bench -benchjson: the iterated
// co-optimization flow timed per stage, with the work counters and a
// solution digest so regressions in speed or in byte-identity both show up
// in the committed baselines (BENCH_<n>.json).
type PerfRow struct {
	Bench   string  `json:"bench"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	// Partitions is the partitioned-routing region count the row was
	// measured with (absent in rows from before the knob existed).
	Partitions int `json:"partitions,omitempty"`
	// RoundsRequested is the -iterate budget; RoundsRun/RoundsKept report
	// how many feedback rounds actually executed and survived.
	RoundsRequested int `json:"rounds_requested"`
	RoundsRun       int `json:"rounds_run"`
	RoundsKept      int `json:"rounds_kept"`
	// Wall times in milliseconds; WallMS is the best of Reps end-to-end
	// solves, and the stage times are from that same best run.
	WallMS        float64 `json:"wall_ms"`
	RouteMS       float64 `json:"route_ms"`
	LRMS          float64 `json:"lr_ms"`
	LegalRefineMS float64 `json:"legal_refine_ms"`
	// Solution quality and solver work counters.
	GTRMax         int64 `json:"gtr_max"`
	InitialGTR     int64 `json:"initial_gtr"`
	LRIterations   int   `json:"lr_iterations"`
	RippedNets     int   `json:"ripped_nets"`
	RevertedRounds int   `json:"reverted_rounds"`
	// SolutionSHA256 digests the contest-format solution bytes: two builds
	// claiming byte-identical output must agree on this hash.
	SolutionSHA256 string `json:"solution_sha256"`
}

// PerfReport is the machine-readable output of a -benchjson run.
type PerfReport struct {
	Scale   float64   `json:"scale"`
	Workers int       `json:"workers"`
	Rounds  int       `json:"rounds"`
	Reps    int       `json:"reps"`
	Rows    []PerfRow `json:"rows"`
}

// Perf measures the iterated solve on the configured suite: each benchmark
// is solved reps times with the given feedback-round budget and the
// fastest run's timings are kept (solutions are deterministic, so every rep
// produces identical bytes — the digest guards that too). Cancellation via
// cfg.Ctx returns the rows completed so far with ErrInterrupted.
func Perf(cfg Config, rounds, reps int) (*PerfReport, error) {
	cfg = cfg.withDefaults()
	if rounds <= 0 {
		rounds = 6
	}
	if reps <= 0 {
		reps = 3
	}
	ins, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{Scale: cfg.Scale, Workers: cfg.Workers, Rounds: rounds, Reps: reps}
	for _, in := range ins {
		if cfg.ctx().Err() != nil {
			return rep, cfg.interrupted(nil)
		}
		row, err := perfBench(cfg, in, rounds, reps)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", in.Name, err)
		}
		rep.Rows = append(rep.Rows, row)
		cfg.progress("%s done: GTR %d in %.1fms (%d/%d rounds kept)",
			in.Name, row.GTRMax, row.WallMS, row.RoundsKept, row.RoundsRun)
	}
	return rep, nil
}

func perfBench(cfg Config, in *problem.Instance, rounds, reps int) (PerfRow, error) {
	req := tdmroute.Request{
		Instance: in,
		Mode:     tdmroute.ModeIterative,
		Rounds:   rounds,
		Options:  cfg.solveOptions(in.Name),
	}
	var best time.Duration
	var res *tdmroute.Response
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		r, err := tdmroute.Run(cfg.ctx(), req)
		elapsed := time.Since(t0)
		if err != nil {
			return PerfRow{}, err
		}
		if r.Degraded != nil {
			return PerfRow{}, cfg.interrupted(r.Degraded.Cause)
		}
		if res == nil || elapsed < best {
			best, res = elapsed, r
		}
	}
	row, err := rowFromResponse(in.Name, res, best)
	if err != nil {
		return PerfRow{}, err
	}
	row.Scale = cfg.Scale
	row.Workers = cfg.Workers
	row.Partitions = cfg.Partitions
	row.RoundsRequested = rounds
	return row, nil
}

// rowFromResponse converts one finished solve into a PerfRow. Wall is the
// end-to-end wall clock observed by the caller; fields without a source in
// the response (Scale, Workers, Partitions, RoundsRequested) are left zero
// for the caller to fill.
func rowFromResponse(name string, res *tdmroute.Response, wall time.Duration) (PerfRow, error) {
	h := sha256.New()
	if err := problem.WriteSolution(h, res.Solution); err != nil {
		return PerfRow{}, err
	}
	return PerfRow{
		Bench:          name,
		RoundsRun:      res.RoundsRun,
		RoundsKept:     res.RoundsKept,
		WallMS:         ms(wall),
		RouteMS:        ms(res.Times.Route),
		LRMS:           ms(res.Times.LR),
		LegalRefineMS:  ms(res.Times.LegalRefine),
		GTRMax:         res.Report.GTRMax,
		InitialGTR:     res.InitialGTR,
		LRIterations:   res.Report.Iterations,
		RippedNets:     res.RouteStats.RippedNets,
		RevertedRounds: res.RouteStats.RevertedRound,
		SolutionSHA256: fmt.Sprintf("%x", h.Sum(nil)),
	}, nil
}

// ms converts a duration to fractional milliseconds for the JSON rows.
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// WritePerfJSON renders the report as indented JSON ending in a newline.
func WritePerfJSON(w io.Writer, rep *PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
