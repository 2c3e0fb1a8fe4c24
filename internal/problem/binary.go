package problem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"tdmroute/internal/graph"
)

// Binary instance/solution formats: varint-packed equivalents of the text
// formats, for contest-scale files where text parsing dominates I/O (the
// paper reports 5.26% of total runtime spent parsing). Layout:
//
//	magic "TDMRI1" | nv ne nn ng | edges (u v)* | nets (k t*)* | groups (m n*)*
//	magic "TDMRS1" | nn | per net: k (edge ratio)*
//
// All integers are unsigned varints. The parser applies the same structural
// checks and allocation guards as the text parser.

var (
	instanceMagic = [6]byte{'T', 'D', 'M', 'R', 'I', '1'}
	solutionMagic = [6]byte{'T', 'D', 'M', 'R', 'S', '1'}
)

// WriteInstanceBinary emits in in the binary format.
func WriteInstanceBinary(w io.Writer, in *Instance) error {
	bw := bufio.NewWriterSize(w, ioBufSize)
	bw.Write(instanceMagic[:])
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	put(uint64(in.G.NumVertices()))
	put(uint64(in.G.NumEdges()))
	put(uint64(len(in.Nets)))
	put(uint64(len(in.Groups)))
	for _, e := range in.G.Edges() {
		put(uint64(e.U))
		put(uint64(e.V))
	}
	for i := range in.Nets {
		terms := in.Nets[i].Terminals
		put(uint64(len(terms)))
		for _, t := range terms {
			put(uint64(t))
		}
	}
	for gi := range in.Groups {
		members := in.Groups[gi].Nets
		put(uint64(len(members)))
		for _, n := range members {
			put(uint64(n))
		}
	}
	return bw.Flush()
}

// ParseInstanceBinary reads an instance in the binary format.
func ParseInstanceBinary(name string, r io.Reader) (*Instance, error) {
	br := bufio.NewReaderSize(r, readBufSize(r))
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("problem: binary magic: %w", err)
	}
	if magic != instanceMagic {
		return nil, fmt.Errorf("problem: not a binary instance (magic %q)", magic[:])
	}
	get := func(what string) (int, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("problem: binary %s: %w", what, err)
		}
		const maxDeclared = 1 << 22
		if v > maxDeclared {
			return 0, fmt.Errorf("problem: binary %s: unreasonable value %d", what, v)
		}
		return int(v), nil
	}
	nv, err := get("vertex count")
	if err != nil {
		return nil, err
	}
	ne, err := get("edge count")
	if err != nil {
		return nil, err
	}
	nn, err := get("net count")
	if err != nil {
		return nil, err
	}
	ng, err := get("group count")
	if err != nil {
		return nil, err
	}

	g := graph.New(nv, capHint(ne))
	for i := 0; i < ne; i++ {
		u, err := get("edge endpoint")
		if err != nil {
			return nil, err
		}
		v, err := get("edge endpoint")
		if err != nil {
			return nil, err
		}
		if u >= nv || v >= nv {
			return nil, fmt.Errorf("problem: binary edge %d out of range", i)
		}
		if u == v {
			return nil, fmt.Errorf("problem: binary edge %d is a self loop", i)
		}
		g.AddEdge(u, v)
	}
	var dups dupCheck
	nets := make([]Net, 0, capHint(nn))
	for i := 0; i < nn; i++ {
		k, err := get("terminal count")
		if err != nil {
			return nil, err
		}
		if k < 1 {
			return nil, fmt.Errorf("problem: binary net %d has no terminals", i)
		}
		terms := make([]int, 0, capHint(k))
		dups.reset()
		for j := 0; j < k; j++ {
			t, err := get("terminal")
			if err != nil {
				return nil, err
			}
			if t >= nv {
				return nil, fmt.Errorf("problem: binary net %d terminal out of range", i)
			}
			if dups.seen(terms, t) {
				return nil, fmt.Errorf("problem: binary net %d has duplicate terminal %d", i, t)
			}
			terms = append(terms, t)
		}
		nets = append(nets, Net{Terminals: terms})
	}
	groups := make([]Group, 0, capHint(ng))
	for gi := 0; gi < ng; gi++ {
		m, err := get("member count")
		if err != nil {
			return nil, err
		}
		if m < 1 {
			return nil, fmt.Errorf("problem: binary group %d empty", gi)
		}
		members := make([]int, 0, capHint(m))
		for j := 0; j < m; j++ {
			n, err := get("member")
			if err != nil {
				return nil, err
			}
			if n >= nn {
				return nil, fmt.Errorf("problem: binary group %d member out of range", gi)
			}
			members = append(members, n)
		}
		insertionSortInts(members)
		for j := 1; j < len(members); j++ {
			if members[j] == members[j-1] {
				return nil, fmt.Errorf("problem: binary group %d has duplicate member net %d", gi, members[j])
			}
		}
		groups = append(groups, Group{Nets: members})
	}
	in := &Instance{Name: name, G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, nil
}

// WriteSolutionBinary emits sol in the binary format.
func WriteSolutionBinary(w io.Writer, sol *Solution) error {
	bw := bufio.NewWriterSize(w, ioBufSize)
	bw.Write(solutionMagic[:])
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	put(uint64(len(sol.Routes)))
	for n, edges := range sol.Routes {
		put(uint64(len(edges)))
		for k, e := range edges {
			put(uint64(e))
			put(uint64(sol.Assign.Ratios[n][k]))
		}
	}
	return bw.Flush()
}

// ParseSolutionBinary reads a solution in the binary format.
func ParseSolutionBinary(r io.Reader, numEdges int) (*Solution, error) {
	br := bufio.NewReaderSize(r, readBufSize(r))
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("problem: binary magic: %w", err)
	}
	if magic != solutionMagic {
		return nil, fmt.Errorf("problem: not a binary solution (magic %q)", magic[:])
	}
	nnU, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("problem: binary net count: %w", err)
	}
	const maxDeclared = 1 << 22
	if nnU > maxDeclared {
		return nil, fmt.Errorf("problem: binary net count %d unreasonable", nnU)
	}
	nn := int(nnU)
	sol := &Solution{
		Routes: make(Routing, 0, capHint(nn)),
		Assign: Assignment{Ratios: make([][]int64, 0, capHint(nn))},
	}
	for n := 0; n < nn; n++ {
		kU, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("problem: binary net %d: %w", n, err)
		}
		if kU > uint64(numEdges) {
			return nil, fmt.Errorf("problem: binary net %d: %d edges exceed %d", n, kU, numEdges)
		}
		k := int(kU)
		edges := make([]int, k)
		ratios := make([]int64, k)
		for j := 0; j < k; j++ {
			e, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("problem: binary net %d edge: %w", n, err)
			}
			if e >= uint64(numEdges) {
				return nil, fmt.Errorf("problem: binary net %d: edge %d out of range", n, e)
			}
			rr, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("problem: binary net %d ratio: %w", n, err)
			}
			if rr > 1<<40 {
				return nil, fmt.Errorf("problem: binary net %d: ratio %d unreasonable", n, rr)
			}
			edges[j] = int(e)
			ratios[j] = int64(rr)
		}
		sol.Routes = append(sol.Routes, edges)
		sol.Assign.Ratios = append(sol.Assign.Ratios, ratios)
	}
	return sol, nil
}
