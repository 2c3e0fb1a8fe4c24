package problem

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"tdmroute/internal/graph"
)

// This file keeps the byte-at-a-time text parsers that the buffered
// tokenizer replaced, and the map-based ValidateInstance, verbatim apart
// from names, as the references of the differential tests: ParseInstance,
// ParseSolution and ParseRouting must return the same values and the same
// *ParseError (line, token, message and cause) as these on every input,
// and ValidateInstance the same error. They allocate a string per token
// and a map per list, which is what the production path no longer does.

// Exported for the external test package, which can import internal/chaos.
var (
	RefParseInstance = refParseInstance
	RefParseSolution = refParseSolution
	RefParseRouting  = refParseRouting
	InstanceSeeds    = instanceSeeds
	SolutionSeeds    = solutionSeeds
)

func refParseInstance(name string, r io.Reader) (*Instance, error) {
	tr := newRefTokenReader(r)
	nv, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	ne, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	nn, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	ng, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	if nv < 0 || ne < 0 || nn < 0 || ng < 0 {
		return nil, fmt.Errorf("problem: header: %w", tr.fail("negative count in header (%d %d %d %d)", nv, ne, nn, ng))
	}
	const maxDeclared = 1 << 22
	if nv > maxDeclared || ne > maxDeclared || nn > maxDeclared || ng > maxDeclared {
		return nil, fmt.Errorf("problem: header: %w", tr.fail("declares unreasonable sizes (%d %d %d %d)", nv, ne, nn, ng))
	}

	g := graph.New(nv, capHint(ne))
	for i := 0; i < ne; i++ {
		u, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: edge %d: %w", i, err)
		}
		v, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: edge %d: %w", i, err)
		}
		if u < 0 || u >= nv || v < 0 || v >= nv {
			return nil, fmt.Errorf("problem: edge %d: %w", i, tr.fail("endpoint out of range: (%d,%d)", u, v))
		}
		if u == v {
			return nil, fmt.Errorf("problem: edge %d: %w", i, tr.fail("self loop at FPGA %d", u))
		}
		g.AddEdge(u, v)
	}

	nets := make([]Net, 0, capHint(nn))
	for i := 0; i < nn; i++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: net %d: %w", i, err)
		}
		if k < 1 || k > maxDeclared {
			return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("bad terminal count %d", k))
		}
		terms := make([]int, 0, capHint(k))
		seen := make(map[int]bool, capHint(k))
		for j := 0; j < k; j++ {
			t, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: net %d terminal %d: %w", i, j, err)
			}
			if t < 0 || t >= nv {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("terminal %d out of range", t))
			}
			if seen[t] {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("duplicate terminal %d", t))
			}
			seen[t] = true
			terms = append(terms, t)
		}
		nets = append(nets, Net{Terminals: terms})
	}

	groups := make([]Group, 0, capHint(ng))
	for gi := 0; gi < ng; gi++ {
		m, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: group %d: %w", gi, err)
		}
		if m < 1 || m > maxDeclared {
			return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("bad member count %d", m))
		}
		members := make([]int, 0, capHint(m))
		seen := make(map[int]bool, capHint(m))
		for j := 0; j < m; j++ {
			n, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: group %d member %d: %w", gi, j, err)
			}
			if n < 0 || n >= nn {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("net %d out of range", n))
			}
			if seen[n] {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("duplicate member net %d", n))
			}
			seen[n] = true
			members = append(members, n)
		}
		sort.Ints(members)
		groups = append(groups, Group{Nets: members})
	}

	in := &Instance{Name: name, G: g, Nets: nets, Groups: groups}
	refRebuildNetGroups(in)
	return in, nil
}

func refRebuildNetGroups(in *Instance) {
	for i := range in.Nets {
		in.Nets[i].Groups = in.Nets[i].Groups[:0]
	}
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			in.Nets[n].Groups = append(in.Nets[n].Groups, gi)
		}
	}
}

func refParseSolution(r io.Reader, numEdges int) (*Solution, error) {
	tr := newRefTokenReader(r)
	nn, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: solution header: %w", err)
	}
	const maxDeclared = 1 << 22
	if nn < 0 || nn > maxDeclared {
		return nil, fmt.Errorf("problem: solution header: %w", tr.fail("bad net count %d", nn))
	}
	sol := &Solution{
		Routes: make(Routing, 0, capHint(nn)),
		Assign: Assignment{Ratios: make([][]int64, 0, capHint(nn))},
	}
	for n := 0; n < nn; n++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, err)
		}
		if k < 0 || k > numEdges {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge count %d outside [0,%d]", k, numEdges))
		}
		edges := make([]int, k)
		ratios := make([]int64, k)
		seen := make(map[int]bool, capHint(k))
		for j := 0; j < k; j++ {
			e, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d edge %d: %w", n, j, err)
			}
			if e < 0 || e >= numEdges {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge id %d out of range", e))
			}
			if seen[e] {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("duplicate edge id %d", e))
			}
			seen[e] = true
			rr, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d ratio %d: %w", n, j, err)
			}
			if rr < 0 {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("negative ratio %d", rr))
			}
			edges[j] = e
			ratios[j] = int64(rr)
		}
		sol.Routes = append(sol.Routes, edges)
		sol.Assign.Ratios = append(sol.Assign.Ratios, ratios)
	}
	return sol, nil
}

func refParseRouting(r io.Reader, numEdges int) (Routing, error) {
	sol, err := refParseSolution(r, numEdges)
	if err != nil {
		return nil, err
	}
	return sol.Routes, nil
}

type refTokenReader struct {
	r       *bufio.Reader
	line    int
	tokLine int    // line on which the last token started
	lastTok string // text of the last token, "" before the first read
}

func newRefTokenReader(r io.Reader) *refTokenReader {
	return &refTokenReader{r: bufio.NewReaderSize(r, 1<<20), line: 1, tokLine: 1}
}

func (tr *refTokenReader) fail(format string, args ...interface{}) *ParseError {
	return &ParseError{Line: tr.tokLine, Token: tr.lastTok, Msg: fmt.Sprintf(format, args...)}
}

func (tr *refTokenReader) Int() (int, error) {
	tok, err := tr.token()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, &ParseError{Line: tr.tokLine, Token: tok, Msg: "bad integer", Err: err}
	}
	return v, nil
}

func (tr *refTokenReader) token() (string, error) {
	// Skip whitespace and comments.
	for {
		b, err := tr.r.ReadByte()
		if err != nil {
			return "", &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: err}
		}
		switch {
		case b == '\n':
			tr.line++
		case b == ' ' || b == '\t' || b == '\r':
			// skip
		case b == '#':
			if _, err := tr.r.ReadString('\n'); err != nil {
				if err == io.EOF {
					return "", &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: io.EOF}
				}
				return "", err
			}
			tr.line++
		default:
			// Start of a token.
			tr.tokLine = tr.line
			buf := make([]byte, 1, 16)
			buf[0] = b
			for {
				c, err := tr.r.ReadByte()
				if err == io.EOF {
					tr.lastTok = string(buf)
					return tr.lastTok, nil
				}
				if err != nil {
					return "", err
				}
				if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '#' {
					if err := tr.r.UnreadByte(); err != nil {
						return "", err
					}
					tr.lastTok = string(buf)
					return tr.lastTok, nil
				}
				buf = append(buf, c)
			}
		}
	}
}

func refValidateInstance(in *Instance) error {
	nv := in.G.NumVertices()
	for i := range in.Nets {
		terms := in.Nets[i].Terminals
		if len(terms) == 0 {
			return fmt.Errorf("net %d has no terminals", i)
		}
		seen := make(map[int]bool, len(terms))
		for _, t := range terms {
			if t < 0 || t >= nv {
				return fmt.Errorf("net %d: terminal %d out of range [0,%d)", i, t, nv)
			}
			if seen[t] {
				return fmt.Errorf("net %d: duplicate terminal %d", i, t)
			}
			seen[t] = true
		}
	}
	for gi := range in.Groups {
		members := in.Groups[gi].Nets
		if len(members) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		for j, n := range members {
			if n < 0 || n >= len(in.Nets) {
				return fmt.Errorf("group %d: net %d out of range", gi, n)
			}
			if j > 0 && members[j] <= members[j-1] {
				return fmt.Errorf("group %d: members not sorted/unique at position %d", gi, j)
			}
		}
	}
	// Back-references must match group membership exactly.
	want := make([][]int, len(in.Nets))
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			want[n] = append(want[n], gi)
		}
	}
	for i := range in.Nets {
		got := in.Nets[i].Groups
		if len(got) != len(want[i]) {
			return fmt.Errorf("net %d: Groups back-reference has %d entries, want %d (call RebuildNetGroups)", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				return fmt.Errorf("net %d: Groups back-reference mismatch at %d", i, j)
			}
		}
	}
	if needsRouting(in) && !in.G.Connected() {
		return ErrDisconnected
	}
	return nil
}
