package problem

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// Native fuzz targets: the parsers must never panic, never hang, and any
// accepted input must satisfy the validator (run with `go test -fuzz` for
// continuous fuzzing; the seeds below run in normal test mode).

// instanceSeeds and solutionSeeds seed the fuzz targets below and the
// differential tests against the reference parsers.
var (
	instanceSeeds = []string{
		"2 1 1 1\n0 1\n2 0 1\n1 0\n",
		tinyText,
		"",
		"999999999 0 0 0",
		"3 2 2 1\n0 1\n1 2\n2 0 2\n2 1 2\n2 0 1\n# comment",
	}
	solutionSeeds = []struct {
		Text     string
		NumEdges int
	}{
		{"1\n1 0 2\n", 5},
		{"0\n", 1},
		{"2\n0\n2 0 2 1 4\n", 3},
	}
)

func FuzzParseInstance(f *testing.F) {
	for _, s := range instanceSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ParseInstance("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		// Connectivity is a semantic property the parser deliberately
		// does not enforce; every structural defect must be caught.
		if verr := ValidateInstance(in); verr != nil && !errors.Is(verr, ErrDisconnected) {
			t.Fatalf("parser accepted invalid instance: %v\ninput: %q", verr, data)
		}
		// Accepted instances must round-trip.
		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ParseInstance("fuzz-rt", &buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if len(back.Nets) != len(in.Nets) || len(back.Groups) != len(in.Groups) {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzParseSolution checks the solution parser that the coordinator runs on
// every backend result: it never panics, accepts only in-range rows of
// matching length, and whatever it accepts round-trips through
// WriteSolution to an equal Solution.
func FuzzParseSolution(f *testing.F) {
	for _, s := range solutionSeeds {
		f.Add([]byte(s.Text), s.NumEdges)
	}
	f.Fuzz(func(t *testing.T, data []byte, numEdges int) {
		if numEdges < 0 || numEdges > 1000 {
			numEdges = 10
		}
		sol, err := ParseSolution(bytes.NewReader(data), numEdges)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("parse failure is not a *ParseError: %v\ninput: %q", err, data)
			}
			return
		}
		for n := range sol.Routes {
			if len(sol.Routes[n]) != len(sol.Assign.Ratios[n]) {
				t.Fatal("accepted solution with mismatched lengths")
			}
			for _, e := range sol.Routes[n] {
				if e < 0 || e >= numEdges {
					t.Fatalf("accepted out-of-range edge %d", e)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteSolution(&buf, sol); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ParseSolution(&buf, numEdges)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\ninput: %q", err, data)
		}
		if !reflect.DeepEqual(back, sol) {
			t.Fatalf("round trip changed the solution: %+v vs %+v\ninput: %q", back, sol, data)
		}
	})
}

// FuzzParseSolutionBinary checks the binary solution decoder that the
// coordinator's client runs on every fetch from a backend: it never
// panics, accepts only in-range rows, and whatever it accepts round-trips
// through WriteSolutionBinary to an equal Solution.
func FuzzParseSolutionBinary(f *testing.F) {
	for _, s := range solutionSeeds {
		sol, err := ParseSolution(strings.NewReader(s.Text), s.NumEdges)
		if err != nil {
			f.Fatalf("seed %q: %v", s.Text, err)
		}
		var buf bytes.Buffer
		if err := WriteSolutionBinary(&buf, sol); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), s.NumEdges)
	}
	f.Add(solutionMagic[:], 4)
	f.Add([]byte("not a solution"), 4)
	f.Fuzz(func(t *testing.T, data []byte, numEdges int) {
		if numEdges < 0 || numEdges > 1000 {
			numEdges = 10
		}
		sol, err := ParseSolutionBinary(bytes.NewReader(data), numEdges)
		if err != nil {
			return
		}
		if len(sol.Routes) != len(sol.Assign.Ratios) {
			t.Fatal("accepted solution with mismatched net counts")
		}
		for n := range sol.Routes {
			if len(sol.Routes[n]) != len(sol.Assign.Ratios[n]) {
				t.Fatal("accepted solution with mismatched lengths")
			}
			for _, e := range sol.Routes[n] {
				if e < 0 || e >= numEdges {
					t.Fatalf("accepted out-of-range edge %d", e)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteSolutionBinary(&buf, sol); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ParseSolutionBinary(&buf, numEdges)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\ninput: %q", err, data)
		}
		if !reflect.DeepEqual(back, sol) {
			t.Fatalf("round trip changed the solution: %+v vs %+v\ninput: %q", back, sol, data)
		}
	})
}

func FuzzParseInstanceJSON(f *testing.F) {
	f.Add([]byte(`{"fpgas":2,"edges":[[0,1]],"nets":[[0,1]],"groups":[[0]]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"fpgas":-5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ParseInstanceJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := ValidateInstance(in); verr != nil && !errors.Is(verr, ErrDisconnected) {
			t.Fatalf("JSON parser accepted invalid instance: %v\ninput: %q", verr, data)
		}
	})
}
