package problem

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"tdmroute/internal/graph"
)

// The instance text format mirrors the ICCAD 2019 CAD Contest Problem B
// inputs (which are not redistributable) in a line-oriented form:
//
//	# comment lines and blank lines are ignored anywhere
//	<numFPGAs> <numEdges> <numNets> <numGroups>
//	u v                      (numEdges lines, 0-based FPGA ids)
//	k t1 t2 ... tk           (numNets lines, k >= 1 terminals)
//	m n1 n2 ... nm           (numGroups lines, m >= 1 net ids)
//
// Terminal lists must not repeat an FPGA and group member lists must not
// repeat a net: duplicates are rejected (they always indicate a generator
// bug or a corrupted file, and silently dropping them would change the
// declared counts). Group member lists are sorted on read. Both are
// 0-based. Every parse failure is a *ParseError carrying the input line and
// the offending token.

// ParseInstance reads an instance from r. name is attached for reporting.
func ParseInstance(name string, r io.Reader) (*Instance, error) {
	tr := newTokenReader(r)
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
	// Guard allocation against corrupt or hostile headers: the largest
	// published benchmark is ~10^6 entities; refuse declared sizes that
	// would pre-allocate unreasonable memory before any data is read, and
	// grow all containers incrementally so a lying header costs nothing.
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

	// Terminal and member lists are carved out of shared slabs that grow
	// with the data read, never with a declared count.
	var lists slab[int]
	var dups dupCheck
	nets := make([]Net, 0, capHint(nn))
	for i := 0; i < nn; i++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: net %d: %w", i, err)
		}
		if k < 1 || k > maxDeclared {
			return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("bad terminal count %d", k))
		}
		dups.reset()
		for j := 0; j < k; j++ {
			t, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: net %d terminal %d: %w", i, j, err)
			}
			if t < 0 || t >= nv {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("terminal %d out of range", t))
			}
			if dups.seen(lists.open(), t) {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("duplicate terminal %d", t))
			}
			lists.push(t)
		}
		nets = append(nets, Net{Terminals: lists.close()})
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
		dups.reset()
		for j := 0; j < m; j++ {
			n, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: group %d member %d: %w", gi, j, err)
			}
			if n < 0 || n >= nn {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("net %d out of range", n))
			}
			if dups.seen(lists.open(), n) {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("duplicate member net %d", n))
			}
			lists.push(n)
		}
		members := lists.close()
		sort.Ints(members)
		groups = append(groups, Group{Nets: members})
	}

	in := &Instance{Name: name, G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, nil
}

// LoadInstance reads an instance from a file, naming it after the path.
func LoadInstance(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseInstance(path, f)
}

// RebuildNetGroups recomputes each net's Groups list from the group member
// lists. Generators and parsers call it after constructing Groups. Lists
// that are too short for their new contents share one fresh backing array.
func (in *Instance) RebuildNetGroups() {
	counts := make([]int, len(in.Nets))
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			counts[n]++
		}
	}
	grow := 0
	for i, c := range counts {
		if cap(in.Nets[i].Groups) < c {
			grow += c
		}
	}
	backing := make([]int, grow)
	for i, c := range counts {
		if cap(in.Nets[i].Groups) < c {
			in.Nets[i].Groups, backing = backing[:0:c], backing[c:]
		} else {
			in.Nets[i].Groups = in.Nets[i].Groups[:0]
		}
	}
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			in.Nets[n].Groups = append(in.Nets[n].Groups, gi)
		}
	}
}

// capHint bounds an initial slice/map capacity taken from untrusted input:
// real data still appends beyond it cheaply, while a lying header cannot
// force a large allocation.
func capHint(n int) int {
	const limit = 1 << 16
	if n > limit {
		return limit
	}
	if n < 0 {
		return 0
	}
	return n
}

// ioBufSize is the buffer size of every text and binary reader and writer
// in this package: large enough that a read or write system call moves
// tens of kilobytes, small enough that allocating and zeroing it is noise
// next to parsing even a small instance.
const ioBufSize = 64 << 10

// maxPlainDigits is the longest run of decimal digits that cannot overflow
// an int, so Int converts it without strconv's range checks.
const maxPlainDigits = 9 + 9*(strconv.IntSize/64)

// tokenReader scans whitespace-separated integer tokens, skipping '#'
// comments to end of line. It reads through its own buffer; a token is a
// slice of that buffer (or of spill, when it straddles a refill), valid
// until the next read, and becomes a string only when an error names it.
// It remembers the line and text of the most recent token so semantic
// errors (range, duplicates) can point at it.
type tokenReader struct {
	r        io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is read but not yet consumed
	err      error // read error to report once buf[pos:end] is consumed
	line     int
	tokLine  int    // line on which the last token started
	tok      []byte // text of the last token, empty before the first read
	spill    []byte // reused storage for tokens that straddle a refill
}

func newTokenReader(r io.Reader) *tokenReader {
	return &tokenReader{r: r, buf: make([]byte, readBufSize(r)), line: 1, tokLine: 1}
}

// readBufSize is ioBufSize, or less when r says through a Len method (as
// bytes.Reader, bytes.Buffer and strings.Reader do) that less remains, so
// parsing an in-memory input never allocates more buffer than the input.
func readBufSize(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return min(max(l.Len(), 16), ioBufSize)
	}
	return ioBufSize
}

// fail builds a ParseError located at the most recently read token.
func (tr *tokenReader) fail(format string, args ...interface{}) *ParseError {
	return &ParseError{Line: tr.tokLine, Token: string(tr.tok), Msg: fmt.Sprintf(format, args...)}
}

// Int returns the next integer token. Plain decimals are converted in
// place; anything else (signs, overlong or malformed tokens) goes through
// strconv.Atoi, whose result and error the ParseError carries unchanged.
func (tr *tokenReader) Int() (int, error) {
	if !tr.nextBuffered() {
		if err := tr.next(); err != nil {
			return 0, err
		}
	}
	if v, ok := plainDecimal(tr.tok); ok {
		return v, nil
	}
	s := string(tr.tok)
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, &ParseError{Line: tr.tokLine, Token: s, Msg: "bad integer", Err: err}
	}
	return v, nil
}

// nextBuffered is next's fast path, run on locals: when only blanks
// precede the next token and its delimiter is already buffered, it
// advances to that token and reports true. Otherwise it changes nothing.
func (tr *tokenReader) nextBuffered() bool {
	buf, i, line := tr.buf[:tr.end], tr.pos, tr.line
	for ; i < len(buf); i++ {
		if c := buf[i]; c == '\n' {
			line++
		} else if c != ' ' && c != '\t' && c != '\r' {
			break
		}
	}
	start := i
	for i < len(buf) && !delim[buf[i]] {
		i++
	}
	if i == start || i == len(buf) {
		return false
	}
	tr.pos, tr.line, tr.tokLine, tr.tok = i, line, line, buf[start:i]
	return true
}

// plainDecimal converts a token of at most maxPlainDigits decimal digits
// and reports false for any other token.
func plainDecimal(tok []byte) (int, bool) {
	if len(tok) > maxPlainDigits {
		return 0, false
	}
	v := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// fill refills buf after buf[pos:end] is consumed, returning the pending
// read error, if any, instead. Like bufio, it reports data read together
// with an error before the error, and gives up after 100 empty reads.
func (tr *tokenReader) fill() error {
	if err := tr.err; err != nil {
		tr.err = nil
		return err
	}
	for i := 0; i < 100; i++ {
		n, err := tr.r.Read(tr.buf)
		tr.pos, tr.end = 0, n
		if n > 0 {
			tr.err = err
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// delim marks the bytes that end a token.
var delim = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '#': true}

// next advances to the next token, skipping whitespace and comments.
func (tr *tokenReader) next() error {
	for {
		if tr.pos == tr.end {
			if err := tr.fill(); err != nil {
				return &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: err}
			}
		}
		switch tr.buf[tr.pos] {
		case '\n':
			tr.line++
			tr.pos++
		case ' ', '\t', '\r':
			tr.pos++
		case '#':
			if err := tr.skipComment(); err != nil {
				return err
			}
			tr.line++
		default:
			tr.tokLine = tr.line
			return tr.scanToken()
		}
	}
}

// skipComment consumes a comment through its terminating newline.
func (tr *tokenReader) skipComment() error {
	for {
		if i := bytes.IndexByte(tr.buf[tr.pos:tr.end], '\n'); i >= 0 {
			tr.pos += i + 1
			return nil
		}
		tr.pos = tr.end
		if err := tr.fill(); err != nil {
			if err == io.EOF {
				return &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: io.EOF}
			}
			return err
		}
	}
}

// scanToken reads the token starting at buf[pos], which ends before a
// delimiter or at the end of input.
func (tr *tokenReader) scanToken() error {
	start := tr.pos
	for i := start; i < tr.end; i++ {
		if delim[tr.buf[i]] {
			tr.tok, tr.pos = tr.buf[start:i], i
			return nil
		}
	}
	tr.spill = append(tr.spill[:0], tr.buf[start:tr.end]...)
	tr.pos = tr.end
	for {
		if err := tr.fill(); err != nil {
			if err == io.EOF {
				tr.tok = tr.spill
				return nil
			}
			return err
		}
		i := tr.pos
		for i < tr.end && !delim[tr.buf[i]] {
			i++
		}
		tr.spill = append(tr.spill, tr.buf[tr.pos:i]...)
		tr.pos = i
		if i < tr.end {
			tr.tok = tr.spill
			return nil
		}
	}
}

// slab carves many short lists out of shared backing arrays, so a parser
// reading one list per net allocates O(log total) times instead of once per
// list. Backing arrays double as data arrives and are never sized from a
// declared count. Each closed list is capped at its own length: appending
// to it reallocates rather than overwriting its neighbour.
type slab[T any] struct {
	buf   []T
	start int // buf[start:] is the list being built
}

// push appends v to the open list.
func (s *slab[T]) push(v T) {
	if len(s.buf) == cap(s.buf) {
		nb := make([]T, 0, max(2*cap(s.buf), 256))
		s.buf, s.start = append(nb, s.buf[s.start:]...), 0
	}
	s.buf = append(s.buf, v)
}

// open returns the list being built; it is valid until the next push.
func (s *slab[T]) open() []T { return s.buf[s.start:] }

// close ends the open list and returns it; an empty list is non-nil, as
// make([]T, 0) would return it.
func (s *slab[T]) close() []T {
	if len(s.buf) == s.start {
		return make([]T, 0)
	}
	l := s.buf[s.start:len(s.buf):len(s.buf)]
	s.start = len(s.buf)
	return l
}

// linearMax is the list length up to which dupCheck scans the list itself.
const linearMax = 32

// dupCheck detects a repeated value in one terminal, member or edge list as
// it is read. Short lists are scanned; a longer one is indexed by a map,
// built from the list when it first outgrows linearMax.
type dupCheck struct{ m map[int]struct{} }

// reset starts a new list.
func (d *dupCheck) reset() { d.m = nil }

// seen reports whether v is in list, the values accepted so far; the
// caller appends v to list when it is not.
func (d *dupCheck) seen(list []int, v int) bool {
	if len(list) < linearMax {
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	if d.m == nil {
		d.m = make(map[int]struct{}, 2*len(list))
		for _, x := range list {
			d.m[x] = struct{}{}
		}
	}
	if _, ok := d.m[v]; ok {
		return true
	}
	d.m[v] = struct{}{}
	return false
}
