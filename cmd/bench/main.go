// Command bench regenerates the paper's tables and figures on the synthetic
// suite (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	bench -table 1                       # Table I benchmark statistics
//	bench -table 2 -scale 0.01          # Table II winner comparison
//	bench -table ablation               # update-rule ablation
//	bench -fig 3a                       # runtime breakdown
//	bench -fig 3b > convergence.csv     # LR convergence series
//	bench -all -scale 0.01              # everything
//
// -benchmarks selects a comma-separated subset (default: all nine).
//
// -cpuprofile and -memprofile capture pprof profiles of whichever
// experiment runs.
//
// -delta measures the ECO re-solve: each benchmark is base-solved with
// retention, a two-net edit is re-solved through the warm ModeDelta path,
// and the same patched instance is solved cold; the table reports both
// walls and the speedup (see DESIGN.md §4.5).
//
// Experiments are anytime: -timeout bounds the wall clock and the first ^C
// cancels the run at the next benchmark boundary; either way the rows
// completed so far are still rendered. Exit status: 0 on a complete run,
// 1 on error, 2 on usage, 3 when the run was interrupted and only partial
// results were written.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tdmroute/internal/exp"
	"tdmroute/internal/viz"
)

func main() {
	os.Exit(benchMain())
}

// benchMain is the real entry point; it returns the process exit code so
// deferred cleanup (profile flushing, context cancellation) always runs.
func benchMain() int {
	var (
		table     = flag.String("table", "", "table to regenerate: 1, 2, 'ablation', 'pow2', or 'router'")
		fig       = flag.String("fig", "", "figure to regenerate: 3a or 3b")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		scale     = flag.Float64("scale", 0.01, "suite scale factor")
		subset    = flag.String("benchmarks", "", "comma-separated benchmark subset")
		budget    = flag.Int("budget", 300, "iteration budget for the ablation")
		csv       = flag.Bool("csv", false, "emit Table II as CSV instead of the text layout")
		scaling   = flag.String("scaling", "", "run the size sweep on this benchmark (uses -scales)")
		scales    = flag.String("scales", "0.002,0.01,0.05", "comma-separated scale factors for -scaling")
		ascii     = flag.Bool("ascii", false, "render figures as ASCII charts (3a bars, 3b curves)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget; partial results are still written on expiry (0 = unlimited)")
		workers   = flag.Int("workers", 1, "worker goroutines per solve (try runtime.NumCPU()); results are identical for every count")
		parts     = flag.Int("partitions", 0, "spatial regions for partitioned initial routing (0 = auto, 1 = off)")
		verbose   = flag.Bool("v", false, "print per-benchmark progress to stderr")
		deltaPerf = flag.Bool("delta", false, "measure the ECO delta re-solve against the cold pipeline")
		reps      = flag.Int("reps", 3, "solves per benchmark for -delta (fastest wins)")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	)
	flag.Parse()

	ctx, cancel := runContext(*timeout)
	defer cancel()
	stopProf, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer stopProf()
	cfg := exp.Config{Scale: *scale, Workers: *workers, Partitions: *parts, Ctx: ctx}
	if *subset != "" {
		cfg.Benchmarks = strings.Split(*subset, ",")
	}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *deltaPerf {
		rows, err := exp.DeltaPerf(cfg, *reps)
		if err = emit(os.Stdout, rows, err, exp.WriteDeltaPerf); err != nil {
			if errors.Is(err, exp.ErrInterrupted) {
				return exitInterrupted(err)
			}
			return fail(err)
		}
		return 0
	}
	if *csv && *table == "2" {
		results, err := exp.TableII(cfg, exp.DefaultWinners())
		if err != nil && !errors.Is(err, exp.ErrInterrupted) {
			return fail(err)
		}
		exp.WriteTableIICSV(os.Stdout, results)
		if err != nil {
			return exitInterrupted(err)
		}
		return 0
	}
	if *scaling != "" {
		if err := runScaling(*scaling, *scales, os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *ascii {
		if err := runASCII(*fig, cfg, os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	ran, err := runBench(*table, *fig, *all, cfg, *budget, os.Stdout)
	if err != nil {
		if errors.Is(err, exp.ErrInterrupted) {
			return exitInterrupted(err)
		}
		return fail(err)
	}
	if !ran {
		flag.Usage()
		return 2
	}
	return 0
}

// startProfiles begins CPU profiling and arranges for the heap profile,
// returning a stop function that flushes whatever was requested. The heap
// profile is written after a final GC so it reflects live retained memory,
// not transient garbage.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
			f.Close()
		}
	}
	return stop, nil
}

// runContext derives the experiment context: bounded by -timeout when set,
// and cancelled by the first SIGINT so ^C still renders the rows completed
// so far. A second ^C falls through to the default handler and kills the
// process.
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	//lint:ignore rawgo CLI signal relay, not solver parallelism: os/signal requires a buffered channel
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	//lint:ignore rawgo CLI signal relay, not solver parallelism: blocks on the signal channel for the life of the process
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "bench: interrupt: rendering partial results (^C again to kill)")
		cancel()
		signal.Stop(sigc)
	}()
	return ctx, cancel
}

// exitInterrupted reports an interrupted run after its partial results have
// been written, returning the distinct degraded exit status.
func exitInterrupted(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	fmt.Fprintln(os.Stderr, "bench: partial results written (exit 3)")
	return 3
}

// runScaling parses the comma-separated scale list and renders the size
// sweep on one benchmark.
func runScaling(bench, scalesCSV string, w io.Writer) error {
	var vals []float64
	for _, s := range strings.Split(scalesCSV, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad scale %q: %w", s, err)
		}
		vals = append(vals, v)
	}
	rows, err := exp.Scaling(bench, vals)
	if err != nil {
		return err
	}
	exp.WriteScaling(w, bench, rows)
	return nil
}

// runASCII renders a figure as an ASCII chart.
func runASCII(fig string, cfg exp.Config, w io.Writer) error {
	switch fig {
	case "3b":
		series, err := exp.Fig3b(cfg)
		if err != nil {
			return err
		}
		z := make([]float64, len(series))
		lb := make([]float64, len(series))
		for i, p := range series {
			z[i] = p.Z
			lb[i] = p.LB
		}
		fmt.Fprintf(w, "Fig. 3(b): LR convergence (%d iterations)\n", len(series))
		fmt.Fprint(w, viz.Curves([][]float64{z, lb}, []string{"z", "LB"}, 12, 60))
		return nil
	case "3a":
		b, err := exp.Fig3a(cfg)
		if err != nil {
			return err
		}
		lr, route, parse, output, legal := b.Percent()
		fmt.Fprintln(w, "Fig. 3(a): runtime share per stage (%)")
		fmt.Fprint(w, viz.Bars(
			[]string{"Lagrangian Relaxation", "Inter-FPGA Routing", "Input File Parsing", "Output File Writing", "Legalization & Refinement"},
			[]float64{lr, route, parse, output, legal}, 40))
		return nil
	}
	return fmt.Errorf("-ascii requires -fig 3a or 3b")
}

// emit renders an experiment's rows, complete or partial. A hard error is
// returned unrendered; an interruption renders the partial rows first and
// then surfaces so the caller can report the distinct exit status.
func emit[T any](w io.Writer, rows T, err error, render func(io.Writer, T)) error {
	if err != nil && !errors.Is(err, exp.ErrInterrupted) {
		return err
	}
	render(w, rows)
	fmt.Fprintln(w)
	return err
}

// runBench executes the selected experiments, writing the rendered tables
// and series to w. It reports whether any experiment was selected.
func runBench(table, fig string, all bool, cfg exp.Config, budget int, w io.Writer) (bool, error) {
	if all {
		table, fig = "", ""
	}
	ran := false

	if all || table == "1" {
		rows, err := exp.TableI(cfg)
		if err = emit(w, rows, err, exp.WriteTableI); err != nil {
			return true, err
		}
		ran = true
	}
	if all || table == "2" {
		results, err := exp.TableII(cfg, exp.DefaultWinners())
		if err = emit(w, results, err, exp.WriteTableII); err != nil {
			return true, err
		}
		ran = true
	}
	if all || table == "ablation" {
		rows, err := exp.Ablation(cfg, budget)
		if err = emit(w, rows, err, exp.WriteAblation); err != nil {
			return true, err
		}
		ran = true
	}
	if all || table == "pow2" {
		rows, err := exp.Pow2Ablation(cfg)
		if err = emit(w, rows, err, exp.WritePow2Ablation); err != nil {
			return true, err
		}
		ran = true
	}
	if all || table == "router" {
		rows, err := exp.RouterAblation(cfg)
		if err = emit(w, rows, err, exp.WriteRouterAblation); err != nil {
			return true, err
		}
		ran = true
	}
	if all || fig == "3a" {
		b, err := exp.Fig3a(cfg)
		if err = emit(w, b, err, exp.WriteFig3a); err != nil {
			return true, err
		}
		ran = true
	}
	if all || fig == "3b" {
		series, err := exp.Fig3b(cfg)
		if err = emit(w, series, err, exp.WriteFig3b); err != nil {
			return true, err
		}
		ran = true
	}
	return ran, nil
}
