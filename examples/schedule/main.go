// Schedule: solves the Fig. 1(a) system and then renders, for the busiest
// edge, the concrete TDM slot table of Fig. 1(b)(c) — the hardware meaning
// of the assigned ratios — plus a short simulation of delivered words.
//
//	go run ./examples/schedule
package main

import (
	"context"
	"fmt"
	"log"

	"tdmroute"
	"tdmroute/internal/graph"
	"tdmroute/internal/mux"
	"tdmroute/internal/problem"
)

func main() {
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
			{Terminals: []int{5, 3}},
			{Terminals: []int{0, 4}},
		},
		Groups: []tdmroute.Group{
			{Nets: []int{0, 1}},
			{Nets: []int{2}},
			{Nets: []int{3, 4}},
		},
	}
	in.RebuildNetGroups()

	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
	if err != nil {
		log.Fatal(err)
	}

	// Find the edge carrying the most signals.
	loads := problem.EdgeLoads(in.G.NumEdges(), res.Solution.Routes)
	busiest, max := -1, 0
	for e, ls := range loads {
		if len(ls) > max {
			busiest, max = e, len(ls)
		}
	}
	if busiest < 0 {
		log.Fatal("no routed edges")
	}
	ed := in.G.Edge(busiest)
	fmt.Printf("busiest edge: F%d-F%d with %d multiplexed signals\n", ed.U+1, ed.V+1, max)

	var ratios []int64
	var owners []int
	for _, l := range loads[busiest] {
		ratios = append(ratios, res.Solution.Assign.Ratios[l.Net][l.Pos])
		owners = append(owners, l.Net)
	}
	for i, n := range owners {
		fmt.Printf("  slot owner %d = net %d, TDM ratio %d\n", i, n, ratios[i])
	}

	sched, err := mux.Build(ratios)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nframe length %d TDM ticks, utilization %.0f%%\n",
		sched.FrameLen, 100*sched.Utilization())
	fmt.Printf("slot table: %v\n", sched)
	gaps := sched.Gaps()
	for i := range ratios {
		fmt.Printf("  signal %d: worst wait %d ticks (ratio %d)\n", i, gaps[i], ratios[i])
	}

	const frames = 4
	fmt.Printf("\nsimulating %d system-clock frames:\n", frames)
	for i, st := range sched.Simulate(frames) {
		fmt.Printf("  signal %d delivered %d words (max wait %d)\n", i, st.Words, st.MaxWait)
	}
}
