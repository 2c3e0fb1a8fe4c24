// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Absolute numbers
// depend on the machine and the suite scale; the harness exists to
// regenerate the rows/series and to track performance of each stage.
//
//	go test -bench=. -benchmem
package tdmroute_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"tdmroute"
	"tdmroute/internal/baseline"
	"tdmroute/internal/colgen"
	"tdmroute/internal/exp"
	"tdmroute/internal/gen"
	"tdmroute/internal/graph"
	"tdmroute/internal/partition"
	"tdmroute/internal/pinassign"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// benchScale keeps one full-suite iteration around a second on a laptop.
const benchScale = 0.003

// BenchmarkTableI regenerates the benchmark-statistics table (generation +
// stats for all nine suite entries).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.TableI(exp.Config{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkTableII regenerates the full winner comparison on one benchmark:
// three winner flows, three +TA runs, and our full framework.
func BenchmarkTableII(b *testing.B) {
	cfg := exp.Config{Scale: benchScale, Benchmarks: []string{"synopsys01"}}
	winners := exp.DefaultWinners()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := exp.TableII(cfg, winners)
		if err != nil {
			b.Fatal(err)
		}
		exp.WriteTableII(io.Discard, results)
	}
}

// Per-row benchmarks for Table II: each winner's own flow and ours.
func BenchmarkTableIIRowWinner(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	for _, w := range baseline.Winners() {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Solve(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIIRowOurs(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	for i := 0; i < b.N; i++ {
		solve(b, tdmroute.Request{Instance: in})
	}
}

// BenchmarkTableIIRowPlusTA measures the "+TA" row: our TDM ratio
// assignment on a fixed (winner) topology.
func BenchmarkTableIIRowPlusTA(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	routes, err := baseline.RouteShortestPath(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(b, tdmroute.Request{Instance: in, Mode: tdmroute.ModeAssignOnly, Routing: routes})
	}
}

// BenchmarkFig3a regenerates the runtime breakdown (with real parse/output
// I/O) on a subset of the suite.
func BenchmarkFig3a(b *testing.B) {
	cfg := exp.Config{Scale: benchScale, Benchmarks: []string{"synopsys01", "synopsys02", "hidden01"}}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig3a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Stage benchmarks decompose Fig. 3(a): routing, LR, legalize+refine,
// parse, output.
func BenchmarkStageRouting(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := route.Route(context.Background(), in, route.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageRoutingParallel compares the sequential router against the
// wave-parallel one at the machine's core count (Options.Workers).
func BenchmarkStageRoutingParallel(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := route.Route(context.Background(), in, route.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStageLR(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	routes, _, err := route.Route(context.Background(), in, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tdm.RunLR(context.Background(), in, routes, tdm.Options{})
	}
}

func BenchmarkStageLegalizeRefine(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	routes, _, err := route.Route(context.Background(), in, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	relaxed, _, _, _, _, _ := tdm.RunLR(context.Background(), in, routes, tdm.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tdm.Finish(context.Background(), in, routes, relaxed, tdm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageParse(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	var buf []byte
	{
		var w byteSliceWriter
		if err := problem.WriteInstance(&w, in); err != nil {
			b.Fatal(err)
		}
		buf = w.data
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problem.ParseInstance("bench", byteReader(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageOutput(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	res := solve(b, tdmroute.Request{Instance: in})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := problem.WriteSolution(io.Discard, res.Solution); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3b regenerates the LR convergence series of synopsys01.
func BenchmarkFig3b(b *testing.B) {
	cfg := exp.Config{Scale: benchScale}
	for i := 0; i < b.N; i++ {
		series, err := exp.Fig3b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkAblationUpdate compares the Sigmoid+SMA rule against the classic
// subgradient at a fixed budget (the DESIGN.md ablation).
func BenchmarkAblationUpdate(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	routes, _, err := route.Route(context.Background(), in, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SigmoidSMA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tdm.RunLR(context.Background(), in, routes, tdm.Options{Epsilon: 1e-12, MaxIter: 100})
		}
	})
	b.Run("Subgradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tdm.RunLR(context.Background(), in, routes, tdm.Options{Epsilon: 1e-12, MaxIter: 100, Update: tdm.UpdateSubgradient})
		}
	})
}

// BenchmarkColgenVsLR cross-validates the LR bound against the column
// generation LP on a tiny instance (Sec. IV-D).
func BenchmarkColgenVsLR(b *testing.B) {
	cfg, err := gen.SuiteConfig("synopsys01", 0.0002)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	routes, _, err := route.Route(context.Background(), in, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Colgen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := colgen.Solve(in, routes, colgen.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tdm.RunLR(context.Background(), in, routes, tdm.Options{Epsilon: 1e-6, MaxIter: 5000})
		}
	})
}

// byteSliceWriter avoids importing bytes in this file's hot benchmarks.
type byteSliceWriter struct{ data []byte }

func (w *byteSliceWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

type byteReaderT struct {
	data []byte
	pos  int
}

func byteReader(data []byte) io.Reader { return &byteReaderT{data: data} }

func (r *byteReaderT) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// BenchmarkAblationPow2 regenerates the ratio-domain ablation row for one
// benchmark (even vs power-of-two legalization).
func BenchmarkAblationPow2(b *testing.B) {
	cfg := exp.Config{Scale: benchScale, Benchmarks: []string{"synopsys01"}}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Pow2Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRouter regenerates the router-ingredient ablation row.
func BenchmarkAblationRouter(b *testing.B) {
	cfg := exp.Config{Scale: benchScale, Benchmarks: []string{"synopsys01"}}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RouterAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileFlow measures the full Fig. 2(a) chain: synthesize a
// netlist, FM-partition it onto a 3x3 board, solve routing + TDM.
func BenchmarkCompileFlow(b *testing.B) {
	h, err := partition.GenerateNetlist(partition.NetlistConfig{Cells: 800, Nets: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	board := gridBoard(3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, err := partition.KWay(h, 9, partition.FMOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		in, err := partition.BuildInstance("bench", h, parts, board)
		if err != nil {
			b.Fatal(err)
		}
		solve(b, tdmroute.Request{Instance: in})
	}
}

// BenchmarkDownstream measures the post-solution stages: slot-schedule
// verification, pin assignment, timing analysis.
func BenchmarkDownstream(b *testing.B) {
	in := genInstance(b, "synopsys01", benchScale)
	res := solve(b, tdmroute.Request{Instance: in, Options: tdmroute.Options{TDM: tdmroute.TDMOptions{Legal: tdmroute.LegalPow2}}})
	b.Run("VerifySchedules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := tdmroute.VerifySchedules(in, res.Solution); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PinAssign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pinassign.Assign(in, res.Solution); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Timing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tdmroute.AnalyzeTiming(in, res.Solution, tdmroute.TimingModel{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func gridBoard(rows, cols int) *graph.Graph {
	g := graph.New(rows*cols, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				g.AddEdge(v, v+1)
			}
			if r+1 < rows {
				g.AddEdge(v, v+cols)
			}
		}
	}
	return g
}
