// Quickstart: build the Fig. 1(a)-style multi-FPGA system in code, solve
// routing + TDM ratio assignment with the public API, and inspect the
// result.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"tdmroute"
	"tdmroute/internal/graph"
)

func main() {
	// A 6-FPGA board with 7 physical connections, as in Fig. 1(a).
	g := graph.New(6, 7)
	g.AddEdge(0, 1) // F1-F2
	g.AddEdge(1, 2) // F2-F3
	g.AddEdge(2, 3) // F3-F4
	g.AddEdge(3, 4) // F4-F5
	g.AddEdge(4, 5) // F5-F6
	g.AddEdge(5, 0) // F6-F1
	g.AddEdge(1, 4) // F2-F5 cross link

	in := &tdmroute.Instance{
		Name: "fig1",
		G:    g,
		Nets: []tdmroute.Net{
			{Terminals: []int{1, 2}},    // signal 1: F2 -> F3
			{Terminals: []int{1, 2, 4}}, // signal 2: F2 -> F3, F5
			{Terminals: []int{0, 2}},    // signal 3: F1 -> F3
			{Terminals: []int{5, 3}},    // background traffic
			{Terminals: []int{0, 4}},
		},
		Groups: []tdmroute.Group{
			{Nets: []int{0, 1}}, // timing-critical path
			{Nets: []int{2}},
			{Nets: []int{3, 4}},
		},
	}
	in.RebuildNetGroups()
	if err := tdmroute.ValidateInstance(in); err != nil {
		log.Fatal(err)
	}

	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
	if err != nil {
		log.Fatal(err)
	}
	if err := tdmroute.ValidateSolution(in, res.Solution); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("instance: %v\n\n", tdmroute.ComputeStats(in))
	for n, edges := range res.Solution.Routes {
		fmt.Printf("net %d routed over %d edge(s):", n, len(edges))
		for k, e := range edges {
			ed := in.G.Edge(e)
			fmt.Printf("  F%d-F%d@%d", ed.U+1, ed.V+1, res.Solution.Assign.Ratios[n][k])
		}
		fmt.Println()
	}
	fmt.Println()
	for gi, gtr := range tdmroute.GroupTDMs(in, res.Solution) {
		fmt.Printf("group %d TDM ratio: %d\n", gi, gtr)
	}
	gtr, arg := tdmroute.Evaluate(in, res.Solution)
	fmt.Printf("\nGTR_max = %d (group %d), lower bound %.2f, %d LR iterations\n",
		gtr, arg, res.Report.LowerBound, res.Report.Iterations)

	// Solutions round-trip through the text format used by cmd/eval.
	if err := tdmroute.WriteSolution(os.Stdout, res.Solution); err != nil {
		log.Fatal(err)
	}
}
