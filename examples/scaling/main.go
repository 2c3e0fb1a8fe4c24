// Scaling: sweeps the benchmark scale factor and reports how runtime and
// solution quality grow with netlist size — the practical sizing guide for
// "runtimes are acceptable for practical use of large-scale multi-FPGA
// systems" (Sec. V).
//
//	go run ./examples/scaling [-bench synopsys01] [-scales 0.002,0.005,0.01,0.02]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"tdmroute"
	"tdmroute/internal/gen"
)

func main() {
	bench := flag.String("bench", "synopsys01", "suite benchmark name")
	scalesArg := flag.String("scales", "0.002,0.005,0.01,0.02", "comma-separated scale factors")
	flag.Parse()

	var scales []float64
	for _, s := range strings.Split(*scalesArg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			log.Fatalf("bad scale %q: %v", s, err)
		}
		scales = append(scales, v)
	}

	fmt.Printf("%-8s %10s %10s %12s %12s %10s %8s\n",
		"scale", "#nets", "#groups", "GTR_max", "LB", "time", "iters")
	for _, scale := range scales {
		cfg, err := gen.SuiteConfig(*bench, scale)
		if err != nil {
			log.Fatal(err)
		}
		in, err := gen.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		fmt.Printf("%-8g %10d %10d %12d %12.0f %9.3fs %8d\n",
			scale, len(in.Nets), len(in.Groups),
			res.Report.GTRMax, res.Report.LowerBound, elapsed.Seconds(), res.Report.Iterations)
	}
}
