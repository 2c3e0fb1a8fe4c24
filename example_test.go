package tdmroute_test

import (
	"context"
	"fmt"
	"log"

	"tdmroute"
	"tdmroute/internal/graph"
)

// fig1Instance builds the 6-FPGA example system of Fig. 1(a).
func fig1Instance() *tdmroute.Instance {
	g := graph.New(6, 7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 0)
	g.AddEdge(1, 4)
	in := &tdmroute.Instance{
		Name: "fig1",
		G:    g,
		Nets: []tdmroute.Net{
			{Terminals: []int{1, 2}},
			{Terminals: []int{1, 2, 4}},
			{Terminals: []int{0, 2}},
		},
		Groups: []tdmroute.Group{
			{Nets: []int{0, 1}},
			{Nets: []int{2}},
		},
	}
	in.RebuildNetGroups()
	return in
}

// ExampleRun solves the Fig. 1(a) system through the unified request API.
// ModeSingle (the zero value) is the paper's one-pass framework: routing
// followed by TDM ratio assignment.
func ExampleRun() {
	in := fig1Instance()
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
	if err != nil {
		log.Fatal(err)
	}
	gtr, group := tdmroute.Evaluate(in, res.Solution)
	fmt.Printf("GTR_max = %d (group %d)\n", gtr, group)
	fmt.Printf("degraded: %v\n", res.Degraded != nil)
	// Output:
	// GTR_max = 8 (group 0)
	// degraded: false
}

// ExampleRun_legal runs the full co-optimization pipeline on the Fig. 1(a)
// system and checks the result against every legality rule of the problem.
func ExampleRun_legal() {
	in := fig1Instance()
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
	if err != nil {
		log.Fatal(err)
	}
	gtr, group := tdmroute.Evaluate(in, res.Solution)
	fmt.Printf("GTR_max = %d (group %d)\n", gtr, group)
	fmt.Printf("legal: %v\n", tdmroute.ValidateSolution(in, res.Solution) == nil)
	// Output:
	// GTR_max = 8 (group 0)
	// legal: true
}

// ExampleRun_iterative adds feedback rounds: each round rips up and
// reroutes the NetGroup realizing GTR_max, re-assigns ratios warm-started,
// and keeps the result only if it improves.
func ExampleRun_iterative() {
	in := fig1Instance()
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{
		Instance: in,
		Mode:     tdmroute.ModeIterative,
		Rounds:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GTR_max = %d (never worse than single-pass %d)\n",
		res.Report.GTRMax, res.InitialGTR)
	// Output:
	// GTR_max = 8 (never worse than single-pass 8)
}

// ExampleRun_parallel runs the feedback rounds with two workers. Workers is
// the one parallelism setting: it fans into both stages, and the result is
// the same at any worker count.
func ExampleRun_parallel() {
	in := fig1Instance()
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{
		Instance: in,
		Mode:     tdmroute.ModeIterative,
		Options:  tdmroute.Options{Workers: 2},
		Rounds:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GTR_max = %d (never worse than single-pass %d)\n",
		res.Report.GTRMax, res.InitialGTR)
	// Output:
	// GTR_max = 8 (never worse than single-pass 8)
}

// ExampleRun_assignOnly assigns TDM ratios on a caller-provided topology —
// the paper's "+TA" experiment. Only the TDM stage runs; the routing in
// Request.Routing is taken as fixed.
func ExampleRun_assignOnly() {
	in := fig1Instance()
	routes := tdmroute.Routing{
		{1},    // net 0: F2-F3
		{1, 6}, // net 1: F2-F3 + F2-F5
		{0, 1}, // net 2: F1-F2-F3
	}
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{
		Instance: in,
		Mode:     tdmroute.ModeAssignOnly,
		Routing:  routes,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GTR_max = %d, refined from %d\n", res.Report.GTRMax, res.Report.GTRNoRef)
	// Output:
	// GTR_max = 8, refined from 10
}

// ExampleRun_validatedRouting checks a hand-made topology with
// ValidateRouting before assigning TDM ratios on it: every net must be
// routed on a tree that connects its terminals.
func ExampleRun_validatedRouting() {
	in := fig1Instance()
	// Hand-made topology: each net routed on a fixed tree.
	routes := tdmroute.Routing{
		{1},    // net 0: F2-F3
		{1, 6}, // net 1: F2-F3 + F2-F5
		{0, 1}, // net 2: F1-F2-F3
	}
	if err := tdmroute.ValidateRouting(in, routes); err != nil {
		log.Fatal(err)
	}
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{
		Instance: in,
		Mode:     tdmroute.ModeAssignOnly,
		Routing:  routes,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GTR_max = %d, refined from %d\n", res.Report.GTRMax, res.Report.GTRNoRef)
	// Output:
	// GTR_max = 8, refined from 10
}

// ExampleVerifySchedules materializes the TDM slot tables of a solved
// system, confirming every edge's ratios are realizable in hardware.
func ExampleVerifySchedules() {
	in := fig1Instance()
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{
		Instance: in,
		Options:  tdmroute.Options{TDM: tdmroute.TDMOptions{Legal: tdmroute.LegalPow2}},
	})
	if err != nil {
		log.Fatal(err)
	}
	verified, skipped, err := tdmroute.VerifySchedules(in, res.Solution)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified %d edges, skipped %d\n", verified, skipped)
	// Output:
	// verified 5 edges, skipped 0
}

// ExampleComputeStats summarizes an instance with the Table I columns.
func ExampleComputeStats() {
	s := tdmroute.ComputeStats(fig1Instance())
	fmt.Printf("FPGAs=%d Edges=%d Nets=%d NetGroups=%d\n", s.FPGAs, s.Edges, s.Nets, s.NetGroups)
	// Output:
	// FPGAs=6 Edges=7 Nets=3 NetGroups=2
}
