package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"tdmroute"
	"tdmroute/internal/gen"
)

func fixtures(t *testing.T) (inPath, solPath string, inst *tdmroute.Instance, sol *tdmroute.Solution) {
	t.Helper()
	cfg, err := gen.SuiteConfig("synopsys02", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	inst, err = gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inPath = filepath.Join(dir, "in.txt")
	solPath = filepath.Join(dir, "sol.txt")
	if err := tdmroute.SaveInstance(inPath, inst); err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.SaveSolution(solPath, res.Solution); err != nil {
		t.Fatal(err)
	}
	return inPath, solPath, inst, res.Solution
}

func TestRunValidSolution(t *testing.T) {
	inPath, solPath, _, _ := fixtures(t)
	if err := run(inPath, solPath, true, true, 500); err != nil {
		t.Fatal(err)
	}
}

func TestRunDetectsIllegalSolution(t *testing.T) {
	inPath, solPath, inst, sol := fixtures(t)
	// Corrupt a ratio to an odd number.
	for n := range sol.Assign.Ratios {
		if len(sol.Assign.Ratios[n]) > 0 {
			sol.Assign.Ratios[n][0] = 3
			break
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := tdmroute.SaveSolution(bad, sol); err != nil {
		t.Fatal(err)
	}
	if err := run(inPath, bad, false, false, 0); err == nil {
		t.Error("odd ratio accepted")
	}
	_ = inst
	_ = solPath
}

func TestRunMissingFiles(t *testing.T) {
	inPath, solPath, _, _ := fixtures(t)
	if err := run("/nonexistent", solPath, false, false, 0); err == nil {
		t.Error("missing instance accepted")
	}
	if err := run(inPath, "/nonexistent", false, false, 0); err == nil {
		t.Error("missing solution accepted")
	}
	garbage := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(garbage, []byte("x y z"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(inPath, garbage, false, false, 0); err == nil {
		t.Error("garbage solution accepted")
	}
}
