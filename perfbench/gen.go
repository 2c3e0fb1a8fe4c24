package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"

	"tdmroute"
)

// tier is the size of a workload's inputs: the cmd/gen flags that make one,
// and how many of them one flow/assign set-up round loads.
type tier struct {
	gen   []string
	batch int
}

var (
	// small is Table I's synopsys01 at scale 0.01, the tier the
	// repository's published measurements use (`gen -name synopsys01
	// -scale 0.01` gives 43 FPGAs, 214 edges, 685 nets, 406 NetGroups).
	// gen's default distribution knobs (20% multi-pin nets, mean group
	// size 2) are synopsys01's, so only the seed differs from the suite
	// instance.
	small = tier{[]string{"-fpgas", "43", "-edges", "214", "-nets", "685", "-groups", "406"}, 64}
	// large is synopsys01 at scale 0.1: the same board with ten times the
	// nets and groups, so a set-up round loads about a tenth as many.
	large = tier{[]string{"-fpgas", "43", "-edges", "214", "-nets", "6850", "-groups", "4060"}, 6}
)

// inputSeed is the generator seed of input i of a run. Inputs are drawn
// independently, so a run that completes more operations sees more inputs
// of the same distribution, never a different mix.
func inputSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// genText returns the contest text of input i, made by the repository's
// instance generator (cmd/gen, built by run.py next to perfbench).
func (b *bench) genText(i int) ([]byte, error) {
	args := append([]string{"-seed", strconv.FormatInt(inputSeed(b.seed, i), 10)}, b.size.gen...)
	cmd := exec.Command(filepath.Join(".bench_build", "bin", "gen"), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("gen input %d: %v: %s", i, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return out, nil
}

// topologyText routes every net on breadth-first shortest paths from its
// first terminal, ignoring congestion, and renders the trees in the routing
// text format ParseRouting reads. It stands in for a topology produced by
// another router, which is what the assignment-only mode is given.
func topologyText(in *tdmroute.Instance) []byte {
	parents := map[int][]int{} // BFS parent edge per vertex, by root
	var buf bytes.Buffer
	buf.WriteString(strconv.Itoa(len(in.Nets)) + "\n")
	for _, net := range in.Nets {
		root := net.Terminals[0]
		pe, ok := parents[root]
		if !ok {
			pe = bfsParents(in, root)
			parents[root] = pe
		}
		inTree := map[int]bool{root: true}
		var tree []int
		for _, t := range net.Terminals[1:] {
			for v := t; !inTree[v]; v = in.G.Edge(pe[v]).Other(v) {
				inTree[v] = true
				tree = append(tree, pe[v])
			}
		}
		buf.WriteString(strconv.Itoa(len(tree)))
		for _, id := range tree {
			buf.WriteString(" " + strconv.Itoa(id) + " 0")
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// bfsParents returns, for every FPGA, the edge to its parent in a
// breadth-first tree rooted at root (-1 at the root).
func bfsParents(in *tdmroute.Instance, root int) []int {
	pe := make([]int, in.G.NumVertices())
	for i := range pe {
		pe[i] = -2
	}
	pe[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range in.G.Adj(u) {
			if pe[a.To] == -2 {
				pe[a.To] = a.Edge
				queue = append(queue, a.To)
			}
		}
	}
	return pe
}
