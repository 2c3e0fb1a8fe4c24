package problem

import (
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteInstance emits in in the text format accepted by ParseInstance.
func WriteInstance(w io.Writer, in *Instance) error {
	tw := newTextWriter(w)
	fmt.Fprintf(tw, "# instance %s\n", in.Name)
	fmt.Fprintf(tw, "%d %d %d %d\n", in.G.NumVertices(), in.G.NumEdges(), len(in.Nets), len(in.Groups))
	for _, e := range in.G.Edges() {
		tw.int(0, int64(e.U))
		tw.int(' ', int64(e.V))
		tw.put('\n')
	}
	for i := range in.Nets {
		tw.list(in.Nets[i].Terminals)
	}
	for gi := range in.Groups {
		tw.list(in.Groups[gi].Nets)
	}
	return tw.flush()
}

// textWriter buffers the text formats. Integers are formatted with
// strconv.AppendInt straight into its buffer, so writing one costs no
// allocation. The buffer is written out whenever an integer leaves less
// than textSlack bytes free; a write error sticks and is returned by flush.
type textWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// textSlack exceeds what is appended between two flush checks: a
// separator, an int64, and a line end.
const textSlack = 32

func newTextWriter(w io.Writer) *textWriter {
	return &textWriter{w: w, buf: make([]byte, 0, ioBufSize)}
}

// int appends sep, unless it is 0, and v.
func (tw *textWriter) int(sep byte, v int64) {
	if sep != 0 {
		tw.buf = append(tw.buf, sep)
	}
	tw.buf = strconv.AppendInt(tw.buf, v, 10)
	if len(tw.buf) > cap(tw.buf)-textSlack {
		tw.flush()
	}
}

// put appends c.
func (tw *textWriter) put(c byte) { tw.buf = append(tw.buf, c) }

// Write appends p, for fmt.
func (tw *textWriter) Write(p []byte) (int, error) {
	if len(tw.buf)+len(p) > cap(tw.buf)-textSlack {
		tw.flush()
	}
	tw.buf = append(tw.buf, p...)
	return len(p), nil
}

// list writes one "k v1 ... vk" line.
func (tw *textWriter) list(vs []int) {
	tw.int(0, int64(len(vs)))
	for _, v := range vs {
		tw.int(' ', int64(v))
	}
	tw.put('\n')
}

// flush writes the buffer out and returns the first write error.
func (tw *textWriter) flush() error {
	if tw.err == nil && len(tw.buf) > 0 {
		n, err := tw.w.Write(tw.buf)
		if err == nil && n < len(tw.buf) {
			err = io.ErrShortWrite
		}
		tw.err = err
	}
	tw.buf = tw.buf[:0]
	return tw.err
}

// SaveInstance writes in to path.
func SaveInstance(path string, in *Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteInstance(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The solution text format lists, for every net, its routed edges with their
// TDM ratios:
//
//	<numNets>
//	k e1 r1 e2 r2 ... ek rk     (numNets lines; k may be 0)
//
// e are 0-based edge ids of the instance graph; r are the (even, positive)
// legalized TDM ratios. It is the machine-checkable equivalent of the
// contest output format and is what cmd/eval verifies.

// WriteSolution emits sol in the text format accepted by ParseSolution.
func WriteSolution(w io.Writer, sol *Solution) error {
	return writeSolution(w, sol.Routes, sol.Assign.Ratios, false)
}

// writeSolution writes routes with their ratios, or with 0 placeholders
// for the ratios when topologyOnly is set.
func writeSolution(w io.Writer, routes Routing, ratios [][]int64, topologyOnly bool) error {
	tw := newTextWriter(w)
	tw.int(0, int64(len(routes)))
	tw.put('\n')
	for n, edges := range routes {
		tw.int(0, int64(len(edges)))
		for k, e := range edges {
			tw.int(' ', int64(e))
			if topologyOnly {
				tw.int(' ', 0)
			} else {
				tw.int(' ', ratios[n][k])
			}
		}
		tw.put('\n')
	}
	return tw.flush()
}

// SaveSolution writes sol to path.
func SaveSolution(path string, sol *Solution) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSolution(f, sol); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseSolution reads a solution in the format produced by WriteSolution.
// numEdges bounds the edge ids; pass the instance's edge count. A net may
// not route the same edge twice, and ratios must be non-negative (zero is
// the WriteRouting placeholder for "topology only"; full legality is
// ValidateSolution's job). Every parse failure is a *ParseError carrying
// the input line and the offending token.
func ParseSolution(r io.Reader, numEdges int) (*Solution, error) {
	return parseSolution(r, numEdges, true)
}

// parseSolution implements ParseSolution; without keepRatios the ratios
// are checked but not stored, and Assign.Ratios stays nil.
func parseSolution(r io.Reader, numEdges int, keepRatios bool) (*Solution, error) {
	tr := newTokenReader(r)
	nn, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: solution header: %w", err)
	}
	const maxDeclared = 1 << 22
	if nn < 0 || nn > maxDeclared {
		return nil, fmt.Errorf("problem: solution header: %w", tr.fail("bad net count %d", nn))
	}
	sol := &Solution{Routes: make(Routing, 0, capHint(nn))}
	if keepRatios {
		sol.Assign.Ratios = make([][]int64, 0, capHint(nn))
	}
	// Rows are carved out of shared slabs that grow with the data read;
	// a row's declared length is only a bound.
	var edgeRows slab[int]
	var ratioRows slab[int64]
	var dups dupCheck
	for n := 0; n < nn; n++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, err)
		}
		if k < 0 || k > numEdges {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge count %d outside [0,%d]", k, numEdges))
		}
		dups.reset()
		for j := 0; j < k; j++ {
			e, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d edge %d: %w", n, j, err)
			}
			if e < 0 || e >= numEdges {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge id %d out of range", e))
			}
			if dups.seen(edgeRows.open(), e) {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("duplicate edge id %d", e))
			}
			edgeRows.push(e)
			rr, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d ratio %d: %w", n, j, err)
			}
			if rr < 0 {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("negative ratio %d", rr))
			}
			if keepRatios {
				ratioRows.push(int64(rr))
			}
		}
		sol.Routes = append(sol.Routes, edgeRows.close())
		if keepRatios {
			sol.Assign.Ratios = append(sol.Assign.Ratios, ratioRows.close())
		}
	}
	return sol, nil
}

// LoadSolution reads a solution file from path.
func LoadSolution(path string, numEdges int) (*Solution, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSolution(f, numEdges)
}

// WriteRouting emits only the topology (ratios written as 0) so that routing
// stages can exchange topologies with the TDM assigner, mirroring the
// paper's "read in the routing topologies of the top three winners"
// experiment.
func WriteRouting(w io.Writer, routes Routing) error {
	return writeSolution(w, routes, nil, true)
}

// ParseRouting reads a topology written by WriteRouting (ratios checked
// for syntax and sign, then dropped).
func ParseRouting(r io.Reader, numEdges int) (Routing, error) {
	sol, err := parseSolution(r, numEdges, false)
	if err != nil {
		return nil, err
	}
	return sol.Routes, nil
}
