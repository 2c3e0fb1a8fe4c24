// Compile: the full multi-FPGA compilation flow of Fig. 2(a) of the paper
// on a synthetic design — netlist partitioning (FM recursive bisection)
// onto a board, then the paper's inter-FPGA routing + TDM ratio
// assignment co-optimization, and finally a hardware-level check that every
// edge's ratios build a legal TDM slot schedule.
//
//	go run ./examples/compile [-cells 3000] [-nets 7000] [-rows 4 -cols 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"tdmroute"
	"tdmroute/internal/graph"
	"tdmroute/internal/partition"
	"tdmroute/internal/pinassign"
	"tdmroute/internal/sim"
)

func main() {
	cells := flag.Int("cells", 3000, "netlist cells")
	nets := flag.Int("nets", 7000, "netlist logical nets")
	rows := flag.Int("rows", 4, "board rows")
	cols := flag.Int("cols", 4, "board cols")
	seed := flag.Int64("seed", 1, "seed")
	pow2 := flag.Bool("pow2", true, "restrict ratios to powers of two (short TDM frames, slightly worse GTR)")
	flag.Parse()

	// 1. Synthesize a gate-level netlist.
	h, err := partition.GenerateNetlist(partition.NetlistConfig{
		Cells: *cells, Nets: *nets, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist: %d cells, %d logical nets, total area %d\n",
		h.NumCells(), len(h.Nets), h.TotalWeight())

	// 2. Board: rows x cols grid of FPGAs.
	k := *rows * *cols
	board := graph.New(k, 2*k)
	for r := 0; r < *rows; r++ {
		for c := 0; c < *cols; c++ {
			v := r**cols + c
			if c+1 < *cols {
				board.AddEdge(v, v+1)
			}
			if r+1 < *rows {
				board.AddEdge(v, v+*cols)
			}
		}
	}

	// 3. Partition the netlist onto the FPGAs.
	parts, err := partition.KWay(h, k, partition.FMOptions{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	cut := partition.CutSize(h, parts)
	fmt.Printf("partitioned onto %d FPGAs: cut = %d inter-FPGA nets (%.1f%% of nets)\n",
		k, cut, 100*float64(cut)/float64(len(h.Nets)))

	// 4. Bridge to a routing instance and run the paper's framework.
	in, err := partition.BuildInstance("compiled", h, parts, board)
	if err != nil {
		log.Fatal(err)
	}
	if err := tdmroute.ValidateInstance(in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %v\n", tdmroute.ComputeStats(in))

	opt := tdmroute.Options{}
	if *pow2 {
		opt.TDM.Legal = tdmroute.LegalPow2
	}
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in, Options: opt})
	if err != nil {
		log.Fatal(err)
	}
	if err := tdmroute.ValidateSolution(in, res.Solution); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved: GTR_max %d (LB %.0f, %d LR iterations)\n",
		res.Report.GTRMax, res.Report.LowerBound, res.Report.Iterations)
	fmt.Printf("stage times: route %.3fs, LR %.3fs, legalize+refine %.3fs\n",
		res.Times.Route.Seconds(), res.Times.LR.Seconds(), res.Times.LegalRefine.Seconds())

	// 5. Hardware-level sanity: the ratios on every edge form a legal TDM
	// slot schedule.
	verified, skipped, err := tdmroute.VerifySchedules(in, res.Solution)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TDM schedules verified on %d edges (%d skipped: frame too long)\n", verified, skipped)

	// 6. Downstream stages: pin assignment onto physical wires, analytic
	// timing, and (in pow2 mode) a discrete-event simulation of the slot
	// schedules to measure real end-to-end latencies.
	pins, err := pinassign.Assign(in, res.Solution)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pin assignment: %d wires total (lower bound %d), widest connection %d wires\n",
		pins.TotalWires, pins.TotalLowerBound, pins.MaxWires)

	trep, err := tdmroute.AnalyzeTiming(in, res.Solution, tdmroute.TimingModel{})
	if err != nil {
		log.Fatal(err)
	}
	if trep.WorstGroup >= 0 {
		fmt.Printf("analytic timing: worst group %d at %.1f ns\n",
			trep.WorstGroup, trep.Groups[trep.WorstGroup].DelayNS)
	}

	if *pow2 {
		simRes, err := sim.Run(in, res.Solution, sim.Options{WordsPerNet: 4})
		if err != nil {
			log.Fatal(err)
		}
		var worstLat int64
		worstNet := -1
		for n, st := range simRes.Nets {
			if st.Simulated && st.MaxLatency > worstLat {
				worstLat, worstNet = st.MaxLatency, n
			}
		}
		fmt.Printf("simulation: %d TDM ticks; worst measured word latency %d ticks (net %d)\n",
			simRes.Ticks, worstLat, worstNet)
	}
}
