package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdmroute"
	"tdmroute/internal/baseline"
	"tdmroute/internal/gen"
)

func fixtures(t *testing.T) (inPath, aPath, bPath string) {
	t.Helper()
	cfg, err := gen.SuiteConfig("synopsys01", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline = worst winner flow; candidate = our framework.
	w := baseline.Winners()[0]
	a, err := w.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inPath = filepath.Join(dir, "in.txt")
	aPath = filepath.Join(dir, "a.txt")
	bPath = filepath.Join(dir, "b.txt")
	if err := tdmroute.SaveInstance(inPath, in); err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.SaveSolution(aPath, a); err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.SaveSolution(bPath, res.Solution); err != nil {
		t.Fatal(err)
	}
	return inPath, aPath, bPath
}

func TestCompareRuns(t *testing.T) {
	inPath, aPath, bPath := fixtures(t)
	// Write output to a temp file to keep test logs clean.
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run(out, inPath, aPath, bPath, 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"GTR_max", "wirelength", "improved"} {
		if !contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCompareSameFileUnchanged(t *testing.T) {
	inPath, aPath, _ := fixtures(t)
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run(out, inPath, aPath, aPath, 3); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out.Name())
	if !contains(string(data), "unchanged") {
		t.Errorf("identical solutions not reported unchanged:\n%s", data)
	}
}

func TestCompareErrors(t *testing.T) {
	inPath, aPath, _ := fixtures(t)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := run(devnull, "/nonexistent", aPath, aPath, 1); err == nil {
		t.Error("missing instance accepted")
	}
	if err := run(devnull, inPath, "/nonexistent", aPath, 1); err == nil {
		t.Error("missing baseline accepted")
	}
	if err := run(devnull, inPath, aPath, "/nonexistent", 1); err == nil {
		t.Error("missing candidate accepted")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
