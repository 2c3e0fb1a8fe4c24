package problem_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"tdmroute/internal/chaos"
	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
)

// The differential tests hold the buffered tokenizer to the byte-at-a-time
// reference kept in reference_test.go: on every input, ParseInstance,
// ParseSolution and ParseRouting return the same values and the same
// *ParseError as the reference, through several reader shapes.

// readerShapes wrap an input the ways callers deliver it: whole, one byte
// per Read, half of each Read, and with io.EOF returned alongside the
// last bytes.
var readerShapes = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"onebyte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"dataerr", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// sameError fails t unless got and want are both nil, or carry the same
// message and, when want wraps a *ParseError, the same Line, Token, Msg
// and cause.
func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
	if want == nil {
		return
	}
	if got.Error() != want.Error() {
		t.Fatalf("%s: error %q, reference %q", what, got, want)
	}
	var gp, wp *problem.ParseError
	if errors.As(got, &gp) != errors.As(want, &wp) {
		t.Fatalf("%s: *ParseError %v, reference %v", what, gp, wp)
	}
	if wp == nil {
		return
	}
	if gp.Line != wp.Line || gp.Token != wp.Token || gp.Msg != wp.Msg {
		t.Fatalf("%s: ParseError %+v, reference %+v", what, *gp, *wp)
	}
	if !reflect.DeepEqual(gp.Err, wp.Err) {
		t.Fatalf("%s: cause %#v, reference %#v", what, gp.Err, wp.Err)
	}
	for _, target := range []error{io.EOF, io.ErrUnexpectedEOF, strconv.ErrRange, strconv.ErrSyntax} {
		if errors.Is(got, target) != errors.Is(want, target) {
			t.Fatalf("%s: errors.Is(%v) differs from the reference", what, target)
		}
	}
	var gn, wn *strconv.NumError
	if errors.As(got, &gn) != errors.As(want, &wn) || (wn != nil && *gn != *wn) {
		t.Fatalf("%s: *strconv.NumError %v, reference %v", what, gn, wn)
	}
}

func checkInstance(t *testing.T, data []byte) {
	t.Helper()
	want, werr := problem.RefParseInstance("x", bytes.NewReader(data))
	for _, rs := range readerShapes {
		got, err := problem.ParseInstance("x", rs.wrap(data))
		what := fmt.Sprintf("ParseInstance/%s on %.80q", rs.name, data)
		sameError(t, what, err, werr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: instance differs from the reference", what)
		}
	}
}

func checkSolution(t *testing.T, data []byte, numEdges int) {
	t.Helper()
	want, werr := problem.RefParseSolution(bytes.NewReader(data), numEdges)
	wantRoutes, wrerr := problem.RefParseRouting(bytes.NewReader(data), numEdges)
	for _, rs := range readerShapes {
		got, err := problem.ParseSolution(rs.wrap(data), numEdges)
		what := fmt.Sprintf("ParseSolution/%s(numEdges=%d) on %.80q", rs.name, numEdges, data)
		sameError(t, what, err, werr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: solution differs from the reference", what)
		}
		routes, err := problem.ParseRouting(rs.wrap(data), numEdges)
		what = fmt.Sprintf("ParseRouting/%s(numEdges=%d) on %.80q", rs.name, numEdges, data)
		sameError(t, what, err, wrerr)
		if !reflect.DeepEqual(routes, wantRoutes) {
			t.Fatalf("%s: routing differs from the reference", what)
		}
	}
}

// corpusInputs reads the committed fuzz corpus files of one target.
func corpusInputs(t *testing.T, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			lit, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			out = append(out, []byte(s))
		}
	}
	if len(out) == 0 {
		t.Fatalf("no corpus entries for %s", target)
	}
	return out
}

// tokenEdgeCases are token shapes the in-place conversion must hand to
// strconv.Atoi unchanged, and layouts that stress the buffer: a comment
// longer than the buffer, a token straddling a refill, CRLF line ends, and
// a comment at end of input without a newline.
func tokenEdgeCases() []string {
	long := strings.Repeat("x", 100<<10)
	return []string{
		"+5", "-0", "007", "-7", "+", "-", "0",
		"999999999999999999",   // 18 digits: converted in place
		"9223372036854775807",  // 19 digits: max int64
		"9223372036854775808",  // 19 digits: overflow
		"99999999999999999999", // 20 digits: overflow
		"-9223372036854775808", "-9223372036854775809",
		"1e3", "0x10", "0b1", "1_000", "12a", "\x00", "1\v2", "1\f",
		"\r\n", "2\r\n1 0\r\n",
		"# " + long + "\n1",
		"# " + long,
		"#",
		"1 # trailing comment without newline",
		strings.Repeat("7", 70<<10),
		strings.Repeat(" ", 64<<10-1) + "123456 7",
		strings.Repeat("\n", 64<<10-3) + "12345#x\n6",
	}
}

func TestParseInstanceMatchesReference(t *testing.T) {
	var inputs [][]byte
	for _, s := range problem.InstanceSeeds {
		inputs = append(inputs, []byte(s))
	}
	inputs = append(inputs, corpusInputs(t, "FuzzParseInstance")...)
	inputs = append(inputs, []byte(wellFormed))
	for seed := int64(0); seed < 64; seed++ {
		inputs = append(inputs, chaos.Corrupt(seed, []byte(wellFormed)))
	}
	for _, tok := range tokenEdgeCases() {
		inputs = append(inputs,
			[]byte(tok),
			[]byte("2 1 1 1\n0 1\n2 0 "+tok+"\n1 0\n"),
			[]byte("2 1 1 "+tok+"\n0 1\n2 0 1\n1 0\n"))
	}
	inputs = append(inputs, []byte(strings.ReplaceAll(wellFormed, "\n", "\r\n")))
	// A generated instance, whole and padded so its tokens straddle a
	// buffer refill at many offsets.
	cfg, err := gen.SuiteConfig("synopsys01", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := problem.WriteInstance(&text, in); err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, text.Bytes())
	for pad := 0; pad < 8; pad++ {
		inputs = append(inputs, append([]byte("#"+strings.Repeat("p", 64<<10-text.Len()%(64<<10)+pad)+"\n"), text.Bytes()...))
	}
	for _, data := range inputs {
		checkInstance(t, data)
	}
}

func TestParseSolutionMatchesReference(t *testing.T) {
	type input struct {
		data     []byte
		numEdges int
	}
	var inputs []input
	for _, s := range problem.SolutionSeeds {
		inputs = append(inputs, input{[]byte(s.Text), s.NumEdges})
	}
	// A random well-formed solution, with long rows (a map-indexed
	// duplicate check) and duplicate-edge variants of them.
	rng := rand.New(rand.NewSource(1))
	var sol bytes.Buffer
	const nets, numEdges = 300, 500
	fmt.Fprintf(&sol, "%d\n", nets)
	for n := 0; n < nets; n++ {
		k := rng.Intn(6)
		if n%50 == 0 {
			k = 40 + rng.Intn(60)
		}
		fmt.Fprint(&sol, k)
		for _, e := range rng.Perm(numEdges)[:k] {
			fmt.Fprintf(&sol, " %d %d", e, 2*(1+rng.Intn(1000)))
		}
		sol.WriteByte('\n')
	}
	valid := sol.Bytes()
	inputs = append(inputs, input{valid, numEdges})
	for seed := int64(0); seed < 64; seed++ {
		inputs = append(inputs, input{chaos.Corrupt(seed, valid), numEdges})
	}
	dup := "1\n60"
	for e := 0; e < 60; e++ {
		dup += fmt.Sprintf(" %d 2", e%59)
	}
	inputs = append(inputs, input{[]byte(dup + "\n"), numEdges}, input{[]byte("1\n3 4 2 7 2 4 2\n"), 10})
	for _, tok := range tokenEdgeCases() {
		inputs = append(inputs,
			input{[]byte(tok), 3},
			input{[]byte("2\n0\n1 1 " + tok + "\n"), 3},
			input{[]byte("1\n1 " + tok + " 2\n"), 3})
	}
	for _, x := range inputs {
		for _, ne := range []int{x.numEdges, 0, 1} {
			checkSolution(t, x.data, ne)
		}
	}
}

// FuzzParseMatchesReference extends the differential tests to arbitrary
// inputs: whatever the bytes, both parsers of each format agree with
// their references.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range problem.InstanceSeeds {
		f.Add([]byte(s), 3)
	}
	for _, s := range problem.SolutionSeeds {
		f.Add([]byte(s.Text), s.NumEdges)
	}
	for _, tok := range tokenEdgeCases() {
		if len(tok) < 64 { // the buffer-sized cases would slow every mutation
			f.Add([]byte("2 1 1 1\n0 1\n2 0 "+tok+"\n1 0\n"), 2)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, numEdges int) {
		if numEdges < 0 || numEdges > 1000 {
			numEdges = 10
		}
		checkInstance(t, data)
		checkSolution(t, data, numEdges)
	})
}
