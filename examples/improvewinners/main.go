// Improve-winners: reproduces the paper's headline experiment (Table II,
// "+TA" rows) on one synthetic benchmark — take each emulated contest
// winner's routing topology, replace its TDM ratio assignment with the
// paper's LR + legalization + refinement, and watch the maximum group TDM
// ratio drop close to the full framework's result.
//
//	go run ./examples/improvewinners [-scale 0.01] [-bench synopsys01]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"tdmroute"
	"tdmroute/internal/baseline"
	"tdmroute/internal/gen"
)

func main() {
	scale := flag.Float64("scale", 0.01, "benchmark scale")
	bench := flag.String("bench", "synopsys01", "suite benchmark name")
	flag.Parse()

	cfg, err := gen.SuiteConfig(*bench, *scale)
	if err != nil {
		log.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark %s\n\n", tdmroute.ComputeStats(in))

	topt := tdmroute.TDMOptions{} // paper defaults

	for _, w := range baseline.Winners() {
		routes, err := w.Route(in)
		if err != nil {
			log.Fatal(err)
		}
		own := &tdmroute.Solution{Routes: routes, Assign: w.Assign(in, routes)}
		ownGTR, _ := tdmroute.Evaluate(in, own)

		ta, err := tdmroute.Run(context.Background(), tdmroute.Request{
			Instance: in,
			Mode:     tdmroute.ModeAssignOnly,
			Options:  tdmroute.Options{TDM: topt},
			Routing:  routes,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := tdmroute.ValidateSolution(in, ta.Solution); err != nil {
			log.Fatal(err)
		}
		rep := ta.Report
		fmt.Printf("%s: own GTR_max %d  ->  +TA GTR_max %d (LB %.0f, %d iters, %.2f%% improvement)\n",
			w.Name, ownGTR, rep.GTRMax, rep.LowerBound, rep.Iterations,
			100*(1-float64(rep.GTRMax)/float64(ownGTR)))
	}

	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in, Options: tdmroute.Options{TDM: topt}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nours (full framework): GTR_max %d (LB %.0f, %d iters)\n",
		res.Report.GTRMax, res.Report.LowerBound, res.Report.Iterations)
}
