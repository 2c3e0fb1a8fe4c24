package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tdmroute"
	"tdmroute/internal/gen"
)

func writeBench(t *testing.T) string {
	t.Helper()
	cfg, err := gen.SuiteConfig("synopsys01", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := tdmroute.SaveInstance(path, in); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFullFlow(t *testing.T) {
	in := writeBench(t)
	out := filepath.Join(t.TempDir(), "sol.txt")
	if _, err := run(context.Background(), in, out, "", 0, 0, 0, 2, 0, false, false, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("solution file not written: %v", err)
	}
	// The produced solution must satisfy the independent checker path.
	inst, err := tdmroute.LoadInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := tdmroute.LoadSolution(out, inst.G.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.ValidateSolution(inst, sol); err != nil {
		t.Fatal(err)
	}
}

func TestRunTopologyOnly(t *testing.T) {
	in := writeBench(t)
	solPath := filepath.Join(t.TempDir(), "sol.txt")
	if _, err := run(context.Background(), in, solPath, "", 0, 0, 0, 1, 0, false, false, false, 0); err != nil {
		t.Fatal(err)
	}
	// Use the solution file as a topology input (ratios ignored).
	out2 := filepath.Join(t.TempDir(), "sol2.txt")
	if _, err := run(context.Background(), in, out2, solPath, 0.01, 100, 0, 2, 0, true, false, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out2); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run(context.Background(), "/nonexistent/x.txt", "", "", 0, 0, 0, 0, 0, false, false, false, 0); err == nil {
		t.Error("missing input accepted")
	}
	in := writeBench(t)
	if _, err := run(context.Background(), in, "", "/nonexistent/topo.txt", 0, 0, 0, 0, 0, false, false, false, 0); err == nil {
		t.Error("missing topology accepted")
	}
	// Corrupt instance file.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not numbers"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), bad, "", "", 0, 0, 0, 0, 0, false, false, false, 0); err == nil {
		t.Error("corrupt instance accepted")
	}
}

func TestRunJSONIO(t *testing.T) {
	// Produce a JSON instance, solve with -json, verify the JSON solution.
	cfg, err := gen.SuiteConfig("synopsys01", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.json")
	f, err := os.Create(inPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.WriteInstanceJSON(f, inst); err != nil {
		t.Fatal(err)
	}
	f.Close()
	outPath := filepath.Join(dir, "sol.json")
	if _, err := run(context.Background(), inPath, outPath, "", 0, 0, 0, 0, 0, false, true, false, 0); err != nil {
		t.Fatal(err)
	}
	sf, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	sol, err := tdmroute.ParseSolutionJSON(sf, inst.G.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.ValidateSolution(inst, sol); err != nil {
		t.Fatal(err)
	}
}

func TestRunIterateAndPow2(t *testing.T) {
	in := writeBench(t)
	out := filepath.Join(t.TempDir(), "sol.txt")
	if _, err := run(context.Background(), in, out, "", 0, 0, 0, 2, 0, false, false, true, 2); err != nil {
		t.Fatal(err)
	}
	inst, err := tdmroute.LoadInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := tdmroute.LoadSolution(out, inst.G.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.ValidateSolution(inst, sol); err != nil {
		t.Fatal(err)
	}
	// pow2 domain: every ratio a power of two.
	for n := range sol.Assign.Ratios {
		for _, r := range sol.Assign.Ratios[n] {
			if r&(r-1) != 0 {
				t.Fatalf("non-power-of-two ratio %d with -pow2", r)
			}
		}
	}
}

// A bounded run must end in exactly one of the anytime contract's states:
// a context error (cancelled before any legal incumbent existed) or a
// written, valid solution — degraded or not. Which one depends on timing;
// anything else is a bug.
func TestRunTimeoutAnytime(t *testing.T) {
	in := writeBench(t)
	out := filepath.Join(t.TempDir(), "sol.txt")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	degraded, err := run(ctx, in, out, "", 1e-9, 5000, 0, 1, 0, false, false, false, 0)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timeout produced a non-context error: %v", err)
		}
		return
	}
	_ = degraded // either outcome is legitimate; the solution must be valid
	inst, err := tdmroute.LoadInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := tdmroute.LoadSolution(out, inst.G.NumEdges())
	if err != nil {
		t.Fatalf("best-so-far solution not written: %v", err)
	}
	if err := tdmroute.ValidateSolution(inst, sol); err != nil {
		t.Fatal(err)
	}
}
