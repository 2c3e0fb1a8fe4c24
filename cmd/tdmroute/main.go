// Command tdmroute runs the full co-optimization flow of the paper on an
// instance file: NetGroup-aware inter-FPGA routing followed by Lagrangian
// TDM ratio assignment with legalization and refinement.
//
// Usage:
//
//	tdmroute -in bench.txt [-out sol.txt] [-topology routes.txt]
//	         [-epsilon 0.0027] [-maxiter 500] [-ripup 5] [-workers N]
//	         [-partitions N]
//	         [-timeout 30s] [-trace] [-cpuprofile cpu.out]
//
// With -topology, the routing stage is skipped and the TDM ratio assignment
// runs on the supplied topology (the "+TA" experiment of Table II).
//
// The solve is anytime: -timeout bounds the wall clock, and the first ^C
// (SIGINT) cancels the run at the next deterministic boundary. In both
// cases the best legal solution found so far is still reported and written.
// Exit status: 0 on a complete solve, 1 on error, 2 on usage, 3 when the
// run was curtailed and a degraded (best-so-far) solution was produced.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"tdmroute"
)

func main() {
	var (
		inPath   = flag.String("in", "", "instance file (required)")
		outPath  = flag.String("out", "", "solution output file (optional)")
		topoPath = flag.String("topology", "", "fixed routing topology: skip routing, assign TDM ratios only")
		epsilon  = flag.Float64("epsilon", 0, "LR convergence criterion (0 = paper default 0.0027)")
		maxIter  = flag.Int("maxiter", 0, "LR iteration limit (0 = default 500)")
		ripup    = flag.Int("ripup", 0, "rip-up and reroute rounds (0 = default, -1 = disable)")
		trace    = flag.Bool("trace", false, "print per-iteration z and LB (Fig. 3(b) series)")
		jsonIO   = flag.Bool("json", false, "read the instance and write the solution as JSON")
		pow2     = flag.Bool("pow2", false, "restrict TDM ratios to powers of two (refs [2][3] domain)")
		iterate  = flag.Int("iterate", 0, "feedback rounds of iterated co-optimization (0 = single pass)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; on expiry the best-so-far solution is still written (0 = unlimited)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for routing and TDM assignment; the solution is identical for every count")
		parts    = flag.Int("partitions", 0, "spatial regions for partitioned initial routing (0 = auto, 1 = off)")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the solve to this file")
	)
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopProf := func() {}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdmroute:", err)
			os.Exit(1)
		}
		stopProf = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	ctx, cancel := solveContext(*timeout)
	defer cancel()
	degraded, err := run(ctx, *inPath, *outPath, *topoPath, *epsilon, *maxIter, *ripup, *workers, *parts, *trace, *jsonIO, *pow2, *iterate)
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdmroute:", err)
		os.Exit(1)
	}
	if degraded {
		fmt.Fprintln(os.Stderr, "tdmroute: solve curtailed; wrote best-so-far solution (exit 3)")
		os.Exit(3)
	}
}

// solveContext derives the solve's context: bounded by -timeout when set,
// and cancelled by the first SIGINT so an interactive ^C still yields the
// best-so-far solution. A second ^C falls through to the runtime's default
// handling and kills the process.
func solveContext(timeout time.Duration) (context.Context, context.CancelFunc) {
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
		fmt.Fprintln(os.Stderr, "tdmroute: interrupt: finishing with best-so-far solution (^C again to kill)")
		cancel()
		signal.Stop(sigc)
	}()
	return ctx, cancel
}

func run(ctx context.Context, inPath, outPath, topoPath string, epsilon float64, maxIter, ripup, workers, partitions int, trace, jsonIO, pow2 bool, iterate int) (degraded bool, err error) {
	t0 := time.Now()
	in, err := loadInstance(inPath, jsonIO)
	if err != nil {
		return false, err
	}
	parseTime := time.Since(t0)
	if err := tdmroute.ValidateInstance(in); err != nil {
		return false, fmt.Errorf("invalid instance: %w", err)
	}
	stats := tdmroute.ComputeStats(in)
	fmt.Println(stats)

	topt := tdmroute.TDMOptions{Epsilon: epsilon, MaxIter: maxIter}
	if pow2 {
		topt.Legal = tdmroute.LegalPow2
	}
	if trace {
		topt.Trace = func(iter int, z, lb float64) {
			fmt.Printf("iter %4d  z %.6g  LB %.6g\n", iter, z, lb)
		}
	}

	req := tdmroute.Request{
		Instance: in,
		Options: tdmroute.Options{
			Route:      tdmroute.RouteOptions{RipUpRounds: ripup},
			TDM:        topt,
			Workers:    workers,
			Partitions: partitions,
		},
	}
	switch {
	case topoPath != "":
		f, err := os.Open(topoPath)
		if err != nil {
			return false, err
		}
		routes, err := tdmroute.ParseRouting(f, in.G.NumEdges())
		f.Close()
		if err != nil {
			return false, err
		}
		if err := tdmroute.ValidateRouting(in, routes); err != nil {
			return false, fmt.Errorf("invalid topology: %w", err)
		}
		req.Mode = tdmroute.ModeAssignOnly
		req.Routing = routes
	case iterate > 0:
		req.Mode = tdmroute.ModeIterative
		req.Rounds = iterate
	}

	res, err := tdmroute.Run(ctx, req)
	if err != nil {
		return false, err
	}
	sol := res.Solution
	rep := res.Report
	routeTime := res.Times.Route
	taTime := res.Times.LR + res.Times.LegalRefine
	if req.Mode == tdmroute.ModeIterative {
		fmt.Printf("Iterated: initial GTR %d, %d/%d feedback rounds kept\n",
			res.InitialGTR, res.RoundsKept, res.RoundsRun)
	}
	if res.Degraded != nil {
		degraded = true
		fmt.Fprintln(os.Stderr, "tdmroute:", res.Degraded)
	}

	if err := tdmroute.ValidateSolution(in, sol); err != nil {
		return false, fmt.Errorf("internal error: produced invalid solution: %w", err)
	}

	fmt.Printf("GTR_noref   %d\n", rep.GTRNoRef)
	fmt.Printf("GTR_max     %d\n", rep.GTRMax)
	fmt.Printf("LB          %.1f\n", rep.LowerBound)
	fmt.Printf("Iterations  %d (converged=%v)\n", rep.Iterations, rep.Converged)
	fmt.Printf("Time: parse %.3fs  route %.3fs  TA %.3fs\n",
		parseTime.Seconds(), routeTime.Seconds(), taTime.Seconds())

	if outPath != "" {
		t2 := time.Now()
		if err := saveSolution(outPath, sol, jsonIO); err != nil {
			return degraded, err
		}
		fmt.Printf("wrote %s in %.3fs\n", outPath, time.Since(t2).Seconds())
	}
	return degraded, nil
}

func loadInstance(path string, jsonIO bool) (*tdmroute.Instance, error) {
	if !jsonIO {
		return tdmroute.LoadInstance(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tdmroute.ParseInstanceJSON(f)
}

func saveSolution(path string, sol *tdmroute.Solution, jsonIO bool) error {
	if !jsonIO {
		return tdmroute.SaveSolution(path, sol)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tdmroute.WriteSolutionJSON(f, sol); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
