package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"tdmroute"
)

const (
	setupRounds = 11 // set-up repetitions per run

	// regions is the partitioned workload's region count, the one the
	// repository's partitioned-routing equivalence tests pin.
	regions = 3
)

// cliOptions are the solver options cmd/tdmroute runs with when given no
// flags: routing and TDM assignment fan out over GOMAXPROCS workers, and
// every other knob keeps its default.
func cliOptions() tdmroute.Options {
	return tdmroute.Options{Workers: runtime.GOMAXPROCS(0)}
}

// replayOf maps n to the input it uses: every every-th one reuses the input
// of back earlier, whose result it must reproduce byte for byte.
func replayOf(n, every, back int) int {
	if n%every == every-1 {
		return n - back
	}
	return n
}

// input is one flow/assign input as the program receives it.
type input struct {
	name       string
	text, topo []byte // instance text; topology text (assign only)
}

func (b *bench) input(prefix string, i int, topo bool) (input, error) {
	x := input{name: fmt.Sprintf("%s%d", prefix, i)}
	var err error
	if x.text, err = b.genText(i); err != nil || !topo {
		return x, err
	}
	in, err := tdmroute.ParseInstance(x.name, bytes.NewReader(x.text))
	if err != nil {
		return x, fmt.Errorf("input %d: %w", i, err)
	}
	x.topo = topologyText(in)
	return x, nil
}

// runFlow measures the full pipeline a user of cmd/tdmroute runs with its
// default flags: parse the instance text, route and assign TDM ratios (Run,
// single mode, GOMAXPROCS workers), and write the solution text.
func runFlow(b *bench) error {
	return b.solveText("flow", cliOptions())
}

// runPartitioned measures the same pipeline with partitioned initial routing
// (cmd/tdmroute -partitions 3), which flow never takes, on the larger tier,
// where routing is a bigger share of a solve.
func runPartitioned(b *bench) error {
	opt := cliOptions()
	opt.Partitions = regions
	return b.solveText("partitioned", opt)
}

// solveText runs flow-shaped operations: parse the instance text, Run it
// in single mode with opt, and write the solution text.
func (b *bench) solveText(prefix string, opt tdmroute.Options) error {
	return b.runInputs(prefix, false, func(x input, op, n int, s *sample) (tdmroute.Request, error) {
		var in *tdmroute.Instance
		var err error
		s.codec += b.tr.call("parse", n, op, func() {
			in, err = tdmroute.ParseInstance(x.name, bytes.NewReader(x.text))
		})
		return tdmroute.Request{Instance: in, Options: opt}, err
	})
}

// runAssign measures the assignment-only mode (the paper's "+TA" use): parse
// an instance and a fixed routing topology, check the topology, assign TDM
// ratios with cmd/tdmroute's default options, and write the solution. The
// routing stage never runs.
func runAssign(b *bench) error {
	return b.runInputs("assign", true, func(x input, op, n int, s *sample) (tdmroute.Request, error) {
		var in *tdmroute.Instance
		var routes tdmroute.Routing
		var err error
		s.codec += b.tr.call("parse", n, op, func() {
			if in, err = tdmroute.ParseInstance(x.name, bytes.NewReader(x.text)); err == nil {
				routes, err = tdmroute.ParseRouting(bytes.NewReader(x.topo), in.G.NumEdges())
			}
		})
		if err != nil {
			return tdmroute.Request{}, err
		}
		s.topology += b.tr.call("check_topology", n, op, func() {
			err = tdmroute.ValidateRouting(in, routes)
		})
		return tdmroute.Request{Instance: in, Mode: tdmroute.ModeAssignOnly, Routing: routes, Options: cliOptions()}, err
	})
}

// runInputs drives flow, partitioned and assign: after the set-up,
// operation n solves input replayOf(n, 8, 4), generated outside the
// measured window.
func (b *bench) runInputs(prefix string, topo bool, prepare func(x input, op, n int, s *sample) (tdmroute.Request, error)) error {
	batch := make([]input, b.size.batch)
	for i := range batch {
		var err error
		if batch[i], err = b.input(prefix, i, topo); err != nil {
			return err
		}
	}
	if err := b.loadSetup(batch); err != nil {
		return err
	}
	digests := map[int]string{}
	var genErr error
	b.measure(func(n int) bool {
		i := replayOf(n, 8, 4)
		x, err := b.input(prefix, i, topo)
		if err != nil {
			genErr = err
			return false
		}
		digest := digests[i]
		b.solveOp(n, &digest, func(op int, s *sample) (tdmroute.Request, error) {
			return prepare(x, op, n, s)
		})
		digests[i] = digest
		return true
	})
	return genErr
}

// loadSetup is the flow, partitioned and assign set-up: parse and validate a
// batch of inputs (instances, and topologies when given), repeated
// setupRounds times, each repetition's processor time a set-up time.
func (b *bench) loadSetup(batch []input) error {
	for r := 0; r < setupRounds; r++ {
		c0 := selfCPU()
		for _, x := range batch {
			in, err := tdmroute.ParseInstance(x.name, bytes.NewReader(x.text))
			if err == nil {
				err = tdmroute.ValidateInstance(in)
			}
			if err == nil && x.topo != nil {
				var routes tdmroute.Routing
				if routes, err = tdmroute.ParseRouting(bytes.NewReader(x.topo), in.G.NumEdges()); err == nil {
					err = tdmroute.ValidateRouting(in, routes)
				}
			}
			if err != nil {
				return fmt.Errorf("set-up: %s: %w", x.name, err)
			}
		}
		d := selfCPU() - c0
		b.setups = append(b.setups, scaled(d, b.recalibrate())/1e3)
	}
	return nil
}

// solveOp measures one in-process operation: prepare decodes the input
// inside the op span, Run solves it, and the solution is written as text.
// The result is checked after the operation's measured time.
func (b *bench) solveOp(n int, digest *string, prepare func(op int, s *sample) (tdmroute.Request, error)) {
	var s sample
	op := b.tr.begin("op", n, -1)
	t0, c0 := time.Now(), selfCPU()
	req, err := prepare(op, &s)
	if err != nil {
		b.tr.end(op)
		b.fail("op %d: %v", n, err)
		return
	}
	run := b.tr.begin("run", n, op)
	resp, err := tdmroute.Run(context.Background(), req)
	b.tr.end(run)
	if err != nil {
		b.tr.end(op)
		b.fail("op %d: run: %v", n, err)
		return
	}
	var text bytes.Buffer
	s.codec += b.tr.call("write", n, op, func() { err = tdmroute.WriteSolution(&text, resp.Solution) })
	s.wall, s.cpu = time.Since(t0), selfCPU()-c0
	b.tr.end(op)
	if err != nil {
		b.fail("op %d: write: %v", n, err)
		return
	}
	s.addStages(resp)
	b.tr.stages(run, n, resp.Times)
	b.tr.call("check", n, op, func() { err = checkSolution(req.Instance, resp, text.Bytes(), digest) })
	if err != nil {
		b.fail("op %d: %v", n, err)
		return
	}
	s.cal = b.recalibrate()
	b.record(s)
}

// addStages copies the program's own stage walls and work counters.
func (s *sample) addStages(resp *tdmroute.Response) {
	s.topology += resp.Times.Route
	s.lr = resp.Times.LR
	s.legal = resp.Times.LegalRefine
	s.iters = resp.Report.Iterations
	s.allocs = resp.Perf.Allocs
	s.gtr = resp.Report.GTRMax
}

// checkSolution verifies a result from its written text, independently of
// the solver's own bookkeeping: the text parses back, the solution is legal,
// its GTR_max is the one reported and not below the reported lower bound,
// and the bytes equal those of every earlier solve of the same input.
func checkSolution(in *tdmroute.Instance, resp *tdmroute.Response, text []byte, digest *string) error {
	if resp.Degraded != nil {
		return fmt.Errorf("solve degraded: %v", resp.Degraded)
	}
	sol, err := tdmroute.ParseSolution(bytes.NewReader(text), in.G.NumEdges())
	if err != nil {
		return fmt.Errorf("written solution does not parse: %w", err)
	}
	if err := tdmroute.ValidateSolution(in, sol); err != nil {
		return fmt.Errorf("illegal solution: %w", err)
	}
	gtr, _ := tdmroute.Evaluate(in, sol)
	if gtr != resp.Report.GTRMax {
		return fmt.Errorf("GTR_max %d, reported %d", gtr, resp.Report.GTRMax)
	}
	if resp.Report.LowerBound > float64(gtr)+1e-6 {
		return fmt.Errorf("GTR_max %d below the reported lower bound %g", gtr, resp.Report.LowerBound)
	}
	sum := sha256.Sum256(text)
	if d := hex.EncodeToString(sum[:]); *digest == "" {
		*digest = d
	} else if d != *digest {
		return fmt.Errorf("solution differs from an earlier solve of the same input")
	}
	return nil
}
