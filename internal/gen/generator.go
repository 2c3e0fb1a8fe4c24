// Package gen produces deterministic synthetic benchmark instances whose
// statistics mirror the ICCAD 2019 CAD Contest suite (Table I of the paper).
// The contest files themselves are not redistributable; the algorithms only
// observe graph topology, terminal sets and group membership, so instances
// reproducing those distributions exercise the same code paths (see
// DESIGN.md §2 for the substitution rationale).
package gen

import (
	"fmt"
	"math/rand"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// Config describes one synthetic benchmark.
type Config struct {
	Name   string
	Seed   int64
	FPGAs  int // |V| of the FPGA graph
	Edges  int // |E| target (>= FPGAs-1; clamped to the complete graph)
	Nets   int
	Groups int

	// MultiPinFrac is the fraction of nets with more than two terminals.
	// Zero selects DefaultMultiPinFrac.
	MultiPinFrac float64
	// MaxPins caps net terminal counts. Zero selects DefaultMaxPins.
	MaxPins int
	// Locality in [0,1) biases terminals of a net (and extra graph edges)
	// toward nearby FPGAs on the board grid. Zero selects
	// DefaultLocality.
	Locality float64
	// MeanGroupSize is the mean of the (geometric) group size
	// distribution. Zero selects DefaultMeanGroupSize.
	MeanGroupSize float64
}

// Defaults for the distribution knobs, chosen to resemble prototyping
// workloads: mostly 2-pin nets, small multi-fanout tail, strong placement
// locality, small overlapping NetGroups.
const (
	DefaultMultiPinFrac  = 0.2
	DefaultMaxPins       = 8
	DefaultLocality      = 0.7
	DefaultMeanGroupSize = 2.0
)

func (c Config) withDefaults() Config {
	if c.MultiPinFrac == 0 {
		c.MultiPinFrac = DefaultMultiPinFrac
	}
	if c.MaxPins == 0 {
		c.MaxPins = DefaultMaxPins
	}
	if c.Locality == 0 {
		c.Locality = DefaultLocality
	}
	if c.MeanGroupSize == 0 {
		c.MeanGroupSize = DefaultMeanGroupSize
	}
	return c
}

// Generate builds the instance described by cfg. The same Config always
// yields the same instance. The result passes problem.ValidateInstance.
func Generate(cfg Config) (*problem.Instance, error) {
	cfg = cfg.withDefaults()
	if cfg.FPGAs < 2 {
		return nil, fmt.Errorf("gen: need at least 2 FPGAs, got %d", cfg.FPGAs)
	}
	if cfg.Nets < 1 {
		return nil, fmt.Errorf("gen: need at least 1 net, got %d", cfg.Nets)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	b := newBoard(cfg.FPGAs)
	g, err := b.buildGraph(cfg, rng)
	if err != nil {
		return nil, err
	}

	nets := make([]problem.Net, cfg.Nets)
	for i := range nets {
		nets[i].Terminals = b.sampleTerminals(cfg, rng)
	}

	groups := make([]problem.Group, cfg.Groups)
	for gi := range groups {
		groups[gi].Nets = sampleGroup(cfg, rng)
	}

	in := &problem.Instance{Name: cfg.Name, G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, nil
}

// board places the FPGAs on an approximately square grid; Manhattan
// distance on the grid stands in for physical board distance.
type board struct {
	n, cols, rows int
}

func newBoard(n int) *board {
	// Integer ceil-sqrt: stays exact (and overflow-free) for any board size.
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	return &board{n: n, cols: cols, rows: rows}
}

func (b *board) pos(v int) (r, c int) { return v / b.cols, v % b.cols }

// buildGraph constructs a connected FPGA graph: the grid spanning tree plus
// extra chords sampled with locality bias. No parallel edges or self loops.
func (b *board) buildGraph(cfg Config, rng *rand.Rand) (*graph.Graph, error) {
	n := b.n
	maxEdges := n * (n - 1) / 2
	want := cfg.Edges
	if want < n-1 {
		return nil, fmt.Errorf("gen: %d edges cannot connect %d FPGAs", want, n)
	}
	if want > maxEdges {
		want = maxEdges
	}
	g := graph.New(n, want)
	used := make(map[[2]int]bool, want)
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if used[key] {
			return false
		}
		used[key] = true
		g.AddEdge(u, v)
		return true
	}

	// Grid spanning tree: connect each vertex to its left or up neighbour.
	for v := 1; v < n; v++ {
		r, c := b.pos(v)
		switch {
		case c > 0 && r > 0:
			if rng.Intn(2) == 0 {
				add(v, v-1)
			} else {
				add(v, v-b.cols)
			}
		case c > 0:
			add(v, v-1)
		default:
			add(v, v-b.cols)
		}
	}

	// Extra chords with locality bias: sample an anchor and a partner at
	// a geometric Manhattan radius.
	for attempts := 0; g.NumEdges() < want && attempts < 100*want+1000; attempts++ {
		u := rng.Intn(n)
		var v int
		if rng.Float64() < cfg.Locality {
			v = b.nearbyVertex(u, rng)
		} else {
			v = rng.Intn(n)
		}
		add(u, v)
	}
	// Dense targets may exhaust rejection sampling; finish deterministically.
	if g.NumEdges() < want {
		for u := 0; u < n && g.NumEdges() < want; u++ {
			for v := u + 1; v < n && g.NumEdges() < want; v++ {
				add(u, v)
			}
		}
	}
	return g, nil
}

// nearbyVertex picks a vertex within a small random Manhattan offset of u.
func (b *board) nearbyVertex(u int, rng *rand.Rand) int {
	ur, uc := b.pos(u)
	for {
		dr := geometricStep(rng) * sign(rng)
		dc := geometricStep(rng) * sign(rng)
		r, c := ur+dr, uc+dc
		if r < 0 || c < 0 || r >= b.rows || c >= b.cols {
			continue
		}
		v := r*b.cols + c
		if v < b.n {
			return v
		}
	}
}

// sampleTerminals picks a net's terminal set: a random driver, sinks nearby
// with probability Locality and uniform otherwise.
func (b *board) sampleTerminals(cfg Config, rng *rand.Rand) []int {
	k := 2
	if rng.Float64() < cfg.MultiPinFrac && cfg.MaxPins > 2 {
		k = 3 + rng.Intn(cfg.MaxPins-2)
	}
	if k > b.n {
		k = b.n
	}
	terms := make([]int, 0, k)
	seen := make(map[int]bool, k)
	src := rng.Intn(b.n)
	terms = append(terms, src)
	seen[src] = true
	for len(terms) < k {
		var v int
		if rng.Float64() < cfg.Locality {
			v = b.nearbyVertex(src, rng)
		} else {
			v = rng.Intn(b.n)
		}
		if !seen[v] {
			seen[v] = true
			terms = append(terms, v)
		}
	}
	return terms
}

// sampleGroup draws a group's member set: geometric size, members clustered
// in net-id space so groups overlap the way timing paths share nets.
func sampleGroup(cfg Config, rng *rand.Rand) []int {
	size := 1
	p := 1 / cfg.MeanGroupSize
	for rng.Float64() > p && size < 64 {
		size++
	}
	if size > cfg.Nets {
		size = cfg.Nets
	}
	// Window of net ids around a random anchor.
	window := 8 * size
	anchor := rng.Intn(cfg.Nets)
	members := make([]int, 0, size)
	seen := make(map[int]bool, size)
	for len(members) < size {
		n := anchor + rng.Intn(2*window+1) - window
		n = ((n % cfg.Nets) + cfg.Nets) % cfg.Nets
		if !seen[n] {
			seen[n] = true
			members = append(members, n)
		}
	}
	insertionSort(members)
	return members
}

func insertionSort(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func geometricStep(rng *rand.Rand) int {
	step := 1
	for rng.Float64() < 0.4 && step < 8 {
		step++
	}
	return step
}

func sign(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}
