// Command perfbench is the repository's benchmark. It makes seeded inputs
// with the repository's instance generator, drives one workload for a fixed
// time, checks every result the program returns, and prints one JSON line of
// metrics as its last line of output. run.py builds it together with the
// generator and server binaries and runs it:
//
//	python3 perfbench/run.py --workload flow --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	flow         parse → route + TDM assignment (Run, single mode) → write
//	partitioned  flow on ten-times-larger inputs, with partitioned routing
//	assign       parse instance and fixed topology → TDM assignment only → write
//	serve        jobs through tdmcoord in front of three tdmroutd backends over HTTP
//
// Times are processor time rescaled to a reference host speed (see calib.go),
// except the wall times and the calibration time a traced run reports among
// its per-layer metrics.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it records
// a span around every call into a layer, writes the spans to
// .bench_build/traces, and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// sample is one measured operation. Stage walls come from the program's own
// Response; codec and topology (assign) are spans the benchmark records
// around the calls it makes, so they are only filled in traced runs.
type sample struct {
	wall, cpu time.Duration // wall and processor time of the operation
	cal       time.Duration // the calibration kernel's time around it
	topology  time.Duration // routing stage, or the topology check in assign
	lr, legal time.Duration // LR and legalization+refinement stage walls
	codec     time.Duration // text parse and write calls
	iters     int
	allocs    uint64
	gtr       int64 // GTR_max of the solution
}

// bench is the state of one run: its inputs, its measurements, and the
// failures the checks found.
type bench struct {
	seed int64
	size tier
	dur  time.Duration
	tr   *tracer

	setups    []float64 // rescaled processor seconds of each set-up repetition
	samples   []sample
	fleetCPU  time.Duration   // serve: the servers' processor time while measured
	lastCal   time.Duration   // the calibration kernel's last time
	cals      []time.Duration // every calibration kernel time
	attempted int
	failed    int
}

// fail counts a failed operation and reports the first few on stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// record adds one successful operation.
func (b *bench) record(s sample) {
	b.samples = append(b.samples, s)
}

// measure calls op with increasing operation numbers, one at a time (a
// closed-loop client), until the run's duration has passed. op returns false
// to stop early (after a fatal error).
func (b *bench) measure(op func(n int) bool) {
	deadline := time.Now().Add(b.dur)
	for n := 0; time.Now().Before(deadline); n++ {
		b.attempted++
		if !op(n) {
			return
		}
	}
}

var workloads = map[string]struct {
	run  func(*bench) error
	size tier
}{
	"flow":        {runFlow, small},
	"partitioned": {runPartitioned, large},
	"assign":      {runAssign, small},
	"serve":       {runServe, small},
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: flow, partitioned, assign, or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload flow|partitioned|assign|serve, -seconds >= 1, -trace 0|1")
		return 2
	}
	b := &bench{
		seed: *seed,
		size: w.size,
		dur:  time.Duration(*seconds) * time.Second,
		tr:   &tracer{on: *trace == 1, t0: time.Now()},
	}
	for i := 0; i < 3; i++ { // warm the kernel up
		b.recalibrate()
	}
	b.cals = nil
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if len(b.samples) == 0 || len(b.setups) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no successful operation\n", *workload)
		return 1
	}
	var metrics map[string]metric
	if b.tr.on {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		metrics = b.perLayer()
	} else {
		metrics = b.endToEnd()
	}
	out, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd is what a user of the workload sees: the processor time an
// operation costs (the median, or for serve, where the servers' time is only
// read for the whole run, the mean over the run's jobs), solution quality
// (mean GTR_max, the objective), and the processor time of set-up (median of
// its repetitions), all times at the reference host's speed.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"cpu_ms":   {b.cpuPerOp(), "ms"},
		"gtr_mean": {mean(b.column(func(s sample) float64 { return float64(s.gtr) })), "ratio"},
		"setup_s":  {quantile(b.setups, 0.5), "s"},
	}
}

func (b *bench) cpuPerOp() float64 {
	cpus := b.column(func(s sample) float64 { return scaled(s.cpu, s.cal) })
	if b.fleetCPU == 0 {
		return quantile(cpus, 0.5)
	}
	fleet := ms(b.fleetCPU) * ms(refKernel) / b.medianCal()
	return mean(cpus) + fleet/float64(len(cpus))
}

// medianCal is the calibration kernel's median time in the run, in ms.
func (b *bench) medianCal() float64 {
	cals := make([]float64, len(b.cals))
	for i, d := range b.cals {
		cals[i] = ms(d)
	}
	return quantile(cals, 0.5)
}

// perLayer reports, per operation, the median wall time in each layer and
// the median work counters; the traced operation's wall latency (median and
// 90th percentile) and rescaled processor time (its difference from the
// untraced cpu_ms is the tracing overhead); and the calibration kernel's
// median processor time, the host's speed during the run.
func (b *bench) perLayer() map[string]metric {
	med := func(f func(s sample) float64) float64 { return quantile(b.column(f), 0.5) }
	walls := b.column(func(s sample) float64 { return ms(s.wall) })
	return map[string]metric{
		"topology_ms":     {med(func(s sample) float64 { return ms(s.topology) }), "ms"},
		"lr_ms":           {med(func(s sample) float64 { return ms(s.lr) }), "ms"},
		"legal_refine_ms": {med(func(s sample) float64 { return ms(s.legal) }), "ms"},
		"codec_ms":        {med(func(s sample) float64 { return ms(s.codec) }), "ms"},
		"outside_stages_ms": {med(func(s sample) float64 {
			return ms(s.wall - s.topology - s.lr - s.legal - s.codec)
		}), "ms"},
		"traced_latency_ms": {quantile(walls, 0.5), "ms"},
		"traced_p90_ms":     {quantile(walls, 0.9), "ms"},
		"traced_cpu_ms":     {b.cpuPerOp(), "ms"},
		"calibration_ms":    {b.medianCal(), "ms"},
		"lr_iterations":     {med(func(s sample) float64 { return float64(s.iters) }), "count"},
		"allocs_per_op":     {med(func(s sample) float64 { return float64(s.allocs) }), "count"},
		"ops":               {float64(len(b.samples)), "count"},
	}
}

func (b *bench) column(f func(s sample) float64) []float64 {
	out := make([]float64, len(b.samples))
	for i, s := range b.samples {
		out[i] = f(s)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	//lint:ignore floatcast pos lies in [0, len(s)-1] because q is a fraction
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
