package tdm

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// cellRef is the per-cell form of Algorithm 1's sweeps, kept as the oracle
// of the factored ones. solveLRS writes every cell's t_en into cellRatio,
// groupTDMs sums every net's cells through a net-major CSR, and an improving
// iteration snapshots all cells. It shares only the multipliers, windows and
// update rules of its own lrState, which the factored sweeps left as they
// were, and recomputes the rest from the instance.
type cellRef struct {
	s                  *lrState
	edgeStart, cellNet []int32
	netStart, netCell  []int32
	cellRatio          []float64
	sqrtPi, sqrtPiX    []float64
	netTDM             []float64
}

func newCellRef(t testing.TB, in *problem.Instance, routes problem.Routing, opt Options) *cellRef {
	opt = opt.withDefaults()
	r := &cellRef{s: mustLRState(t, in, routes, opt)}
	numEdges := in.G.NumEdges()
	r.edgeStart = make([]int32, numEdges+1)
	for _, edges := range routes {
		for _, e := range edges {
			r.edgeStart[e+1]++
		}
	}
	for e := 0; e < numEdges; e++ {
		r.edgeStart[e+1] += r.edgeStart[e]
	}
	total := r.edgeStart[numEdges]
	r.cellNet = make([]int32, total)
	r.cellRatio = make([]float64, total)
	r.netStart = make([]int32, len(routes)+1)
	for n, edges := range routes {
		r.netStart[n+1] = r.netStart[n] + int32(len(edges))
	}
	r.netCell = make([]int32, total)
	fill := append([]int32(nil), r.edgeStart[:numEdges]...)
	for n, edges := range routes {
		for k, e := range edges {
			idx := fill[e]
			fill[e]++
			r.cellNet[idx] = int32(n)
			r.netCell[r.netStart[n]+int32(k)] = idx
		}
	}
	r.sqrtPi = make([]float64, len(routes))
	r.sqrtPiX = make([]float64, len(routes))
	r.netTDM = make([]float64, len(routes))
	return r
}

func (r *cellRef) computePi() {
	for n := range r.sqrtPi {
		var p float64
		for _, gi := range r.s.in.Nets[n].Groups {
			p += r.s.lambda[gi]
		}
		r.sqrtPiX[n] = math.Sqrt(p)
		if p < DefaultPiFloor {
			p = DefaultPiFloor
		}
		r.sqrtPi[n] = math.Sqrt(p)
	}
}

// solveLRS adds the lower bound in the solver's chunk partition, the one
// order its per-chunk partial sums fix.
func (r *cellRef) solveLRS() float64 {
	numEdges := len(r.edgeStart) - 1
	workers := r.s.opt.Workers
	partial := make([]float64, par.NumChunks(numEdges))
	par.For(numEdges, workers, 0, func(chunk, start, end int) {
		var lb float64
		for e := start; e < end; e++ {
			lo, hi := r.edgeStart[e], r.edgeStart[e+1]
			if lo == hi {
				continue
			}
			var sum, sumExact float64
			for i := lo; i < hi; i++ {
				sum += r.sqrtPi[r.cellNet[i]]
				sumExact += r.sqrtPiX[r.cellNet[i]]
			}
			for i := lo; i < hi; i++ {
				r.cellRatio[i] = sum / r.sqrtPi[r.cellNet[i]]
			}
			lb += sumExact * sumExact
		}
		partial[chunk] = lb
	})
	var lb float64
	for _, p := range partial {
		lb += p
	}
	return lb
}

// groupTDMs leaves the group TDMs in the lrState, where the update rules
// read them.
func (r *cellRef) groupTDMs() (z float64) {
	for n := range r.netTDM {
		var sum float64
		for _, idx := range r.netCell[r.netStart[n]:r.netStart[n+1]] {
			sum += r.cellRatio[idx]
		}
		r.netTDM[n] = sum
	}
	for gi, grp := range r.s.in.Groups {
		var sum float64
		for _, n := range grp.Nets {
			sum += r.netTDM[n]
		}
		r.s.grpTDM[gi] = sum
		if sum > z {
			z = sum
		}
	}
	return z
}

func (r *cellRef) unflatten(flat []float64, routes problem.Routing) [][]float64 {
	out := make([][]float64, len(routes))
	for n := range routes {
		row := make([]float64, len(routes[n]))
		for k := range row {
			row[k] = flat[r.netCell[r.netStart[n]+int32(k)]]
		}
		out[n] = row
	}
	return out
}

// lrRun is one LR solve's results, with the per-iteration (z, LB) trace.
type lrRun struct {
	ratios    [][]float64
	z, lb     float64
	iters     int
	converged bool
	trace     []float64
}

// runLR is RunLR's loop over the per-cell sweeps.
func (r *cellRef) runLR(routes problem.Routing) lrRun {
	opt := r.s.opt
	run := lrRun{z: math.Inf(1)}
	var best []float64
	for run.iters = 0; run.iters < opt.maxIter(); run.iters++ {
		r.computePi()
		lb := r.solveLRS()
		z := r.groupTDMs()
		run.trace = append(run.trace, z, lb)
		if lb > run.lb {
			run.lb = lb
		}
		if z < run.z {
			run.z = z
			best = append(best[:0], r.cellRatio...)
		}
		if run.lb > 0 && (run.z-run.lb)/run.lb <= opt.Epsilon {
			run.iters++
			run.converged = true
			break
		}
		if opt.Update == UpdateSubgradient {
			r.s.updateSubgradient(z, lb, run.z)
		} else {
			r.s.updateMultipliers(z)
		}
	}
	if best == nil {
		r.computePi()
		if lb := r.solveLRS(); lb > run.lb {
			run.lb = lb
		}
		run.z = r.groupTDMs()
		best = r.cellRatio
	}
	run.ratios = r.unflatten(best, routes)
	return run
}

// sessionRun solves routes on ses, recording the trace.
func sessionRun(t testing.TB, ses *Session, routes problem.Routing, opt Options) lrRun {
	t.Helper()
	var run lrRun
	opt.Trace = func(_ int, z, lb float64) { run.trace = append(run.trace, z, lb) }
	var stopped error
	run.ratios, run.z, run.lb, run.iters, run.converged, stopped = ses.RunLR(context.Background(), routes, opt)
	if stopped != nil {
		t.Fatal(stopped)
	}
	return run
}

// diffRun names the first difference between two runs, bit for bit, or
// returns "".
func diffRun(got, want lrRun) string {
	switch {
	case !sameFloat(got.z, want.z):
		return "z"
	case !sameFloat(got.lb, want.lb):
		return "lb"
	case got.iters != want.iters || got.converged != want.converged:
		return "iterations"
	case len(got.trace) != len(want.trace):
		return "trace length"
	case len(got.ratios) != len(want.ratios):
		return "ratio rows"
	}
	for i := range got.trace {
		if !sameFloat(got.trace[i], want.trace[i]) {
			return "trace"
		}
	}
	for n := range got.ratios {
		if len(got.ratios[n]) != len(want.ratios[n]) {
			return "ratio row length"
		}
		for k := range got.ratios[n] {
			if !sameFloat(got.ratios[n][k], want.ratios[n][k]) {
				return "ratio"
			}
		}
	}
	return ""
}

// refInstance returns a random instance over a sparse connected graph with
// shortest-path routes, shaped to hold every case the factored sweeps
// treat apart: a net in no group, a net in two groups, a grouped net with
// an empty route and a route that repeats an edge.
func refInstance(rng *rand.Rand, nv, nn, ng int) (*problem.Instance, problem.Routing) {
	g := graph.New(nv, 2*nv)
	perm := rng.Perm(nv)
	for i := 1; i < nv; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for j := 0; j < nv/4; j++ {
		if u, v := rng.Intn(nv), rng.Intn(nv); u != v {
			g.AddEdge(u, v)
		}
	}
	unit := make([]uint64, g.NumEdges())
	for e := range unit {
		unit[e] = 1
	}
	d := graph.NewDijkstra(g)
	nets := make([]problem.Net, nn)
	routes := make(problem.Routing, nn)
	for n := range nets {
		u, v := rng.Intn(nv), rng.Intn(nv-1)
		if v >= u {
			v++
		}
		nets[n].Terminals = []int{u, v}
		routes[n], _ = d.ShortestPath(u, v, unit, nil)
	}
	groups := make([]problem.Group, ng)
	for gi := range groups {
		seen := map[int]bool{}
		for j := 1 + rng.Intn(4); j > 0; j-- {
			// Net 0 stays in no group.
			if n := 1 + rng.Intn(nn-1); !seen[n] {
				seen[n] = true
				groups[gi].Nets = append(groups[gi].Nets, n)
			}
		}
		sortInts(groups[gi].Nets)
	}
	// Net 1 joins the first two groups; net 2 keeps its groups but loses
	// its route; net 3 crosses its first edge twice.
	for gi := 0; gi < 2; gi++ {
		if grp := &groups[gi]; grp.Nets[0] != 1 {
			grp.Nets = append([]int{1}, grp.Nets...)
		}
	}
	if !slices.Contains(groups[2].Nets, 2) {
		groups[2].Nets = append(groups[2].Nets, 2)
		sortInts(groups[2].Nets)
	}
	routes[2] = nil
	routes[3] = append(routes[3], routes[3][0])
	in := &problem.Instance{Name: "ref", G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, routes
}

// mutateRefRoutes is mutateRoutes that also gives the first rerouted net an
// empty route and the last one a route that repeats an edge, so a reused
// session's builds see both kinds of route come and go.
func mutateRefRoutes(rng *rand.Rand, in *problem.Instance, routes problem.Routing) problem.Routing {
	next := mutateRoutes(rng, in, routes)
	var moved []int
	for n := range next {
		if !slices.Equal(next[n], routes[n]) {
			moved = append(moved, n)
		}
	}
	if len(moved) >= 2 {
		next[moved[0]] = nil
		if last := moved[len(moved)-1]; len(next[last]) > 0 {
			next[last] = append(append([]int(nil), next[last]...), next[last][0])
		}
	}
	return next
}

// TestFactoredSweepsMatchCellReference checks that the factored sweeps —
// per-edge sums, per-net TDMs from those sums in route order, ungrouped
// nets skipped, the snapshot edgeSum ‖ sqrtPi — give z, the lower bound,
// every iteration's trace and every relaxed ratio bit for bit as the
// per-cell sweeps did, on fresh sessions and on a session reused across
// six reroute steps.
func TestFactoredSweepsMatchCellReference(t *testing.T) {
	type shape struct{ nv, nn, ng, iters int }
	shapes := []shape{{6, 8, 4, 40}, {12, 40, 15, 60}, {20, 90, 60, 60}}
	// Over par's grain: the sweeps fork at every worker count above 1.
	big := shape{80, 9000, 5000, 15}
	shapes = append(shapes, big)
	rng := rand.New(rand.NewSource(2101))
	for si, sh := range shapes {
		in, routes := refInstance(rng, sh.nv, sh.nn, sh.ng)
		if sh == big {
			if cells := mustLRState(t, in, routes, Options{}.withDefaults()).cellNet; len(cells) < 1<<14 {
				t.Fatalf("large instance has %d cells, below the grain", len(cells))
			}
		}
		for _, workers := range []int{1, 3} {
			for _, update := range []UpdateRule{UpdateSigmoidSMA, UpdateSubgradient} {
				opt := Options{Workers: workers, MaxIter: sh.iters, Update: update}
				ses := NewSession(in)
				cur := routes
				steps := 6
				if sh == big {
					steps = 2
				}
				for step := 0; step < steps; step++ {
					got := sessionRun(t, ses, cur, opt)
					want := newCellRef(t, in, cur, opt).runLR(cur)
					if d := diffRun(got, want); d != "" {
						t.Fatalf("shape %d workers %d update %d step %d: %s differs", si, workers, update, step, d)
					}
					cur = mutateRefRoutes(rng, in, cur)
				}
			}
		}
	}
}

// FuzzFactoredLR checks fuzz-built small routings and multipliers against
// the per-cell reference: one sweep under the raw multipliers, then a short
// LR run warm-started from them.
func FuzzFactoredLR(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 1, 2, 0, 0, 1, 9, 200, 1, 7, 0, 0, 255})
	f.Add([]byte{40, 7, 2, 5, 5, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nv := 2 + next()%6
		g := graph.New(nv, 2*nv)
		for i := 1; i < nv; i++ {
			g.AddEdge(i, next()%i)
		}
		for j := next() % 4; j > 0; j-- {
			if u, v := next()%nv, next()%nv; u != v {
				g.AddEdge(u, v)
			}
		}
		numEdges := g.NumEdges()
		nn := 1 + next()%12
		nets := make([]problem.Net, nn)
		routes := make(problem.Routing, nn)
		for n := range nets {
			nets[n].Terminals = []int{0, 1}
			for k := next() % 5; k > 0; k-- {
				routes[n] = append(routes[n], next()%numEdges)
			}
		}
		groups := make([]problem.Group, 1+next()%6)
		for gi := range groups {
			for n := range nets {
				if next()%3 == 0 {
					groups[gi].Nets = append(groups[gi].Nets, n)
				}
			}
		}
		in := &problem.Instance{Name: "fuzz", G: g, Nets: nets, Groups: groups}
		in.RebuildNetGroups()
		lambda := make([]float64, len(groups))
		for gi := range lambda {
			var b [8]byte
			for i := range b {
				b[i] = byte(next())
			}
			// A finite, non-negative multiplier of any magnitude, zero
			// included.
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			if math.IsInf(v, 0) || math.IsNaN(v) {
				v = 1
			}
			lambda[gi] = v
		}
		opt := Options{Workers: 1 + next()%3, MaxIter: 1 + next()%8}.withDefaults()

		s := mustLRState(t, in, routes, opt)
		r := newCellRef(t, in, routes, opt)
		copy(s.lambda, lambda)
		copy(r.s.lambda, lambda)
		s.computePi()
		r.computePi()
		if lb, want := s.solveLRS(), r.solveLRS(); !sameFloat(lb, want) {
			t.Fatalf("lb %v, want %v", lb, want)
		}
		if z, want := s.groupTDMs(routes, s.groupedCells(routes)), r.groupTDMs(); !sameFloat(z, want) {
			t.Fatalf("z %v, want %v", z, want)
		}
		got := s.unflatten(s.snapshot(nil), routes)
		want := r.unflatten(r.cellRatio, routes)
		if d := diffRun(lrRun{ratios: got}, lrRun{ratios: want}); d != "" {
			t.Fatalf("sweep: %s differs", d)
		}

		opt.WarmLambda = lambda
		run := sessionRun(t, NewSession(in), routes, opt)
		if d := diffRun(run, newCellRef(t, in, routes, opt).runLR(routes)); d != "" {
			t.Fatalf("run: %s differs", d)
		}
	})
}
