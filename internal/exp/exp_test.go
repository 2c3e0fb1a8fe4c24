package exp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tdmroute"
)

// smallCfg keeps harness tests fast: two benchmarks at a tiny scale.
func smallCfg() Config {
	return Config{Scale: 0.002, Benchmarks: []string{"synopsys01", "synopsys02"}}
}

func TestTableI(t *testing.T) {
	rows, err := TableI(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].FPGAs != 43 || rows[0].Edges != 214 {
		t.Errorf("synopsys01 board: %+v", rows[0])
	}
	if rows[0].Nets != 137 { // 68500 * 0.002
		t.Errorf("scaled nets = %d, want 137", rows[0].Nets)
	}
	var buf bytes.Buffer
	WriteTableI(&buf, rows)
	if !strings.Contains(buf.String(), "synopsys02") {
		t.Error("rendered table missing benchmark name")
	}
}

func TestTableIIShape(t *testing.T) {
	results, err := TableII(smallCfg(), DefaultWinners())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.Winners) != 3 || len(r.WinnersTA) != 3 {
			t.Fatalf("%s: %d winners, %d +TA", r.Name, len(r.Winners), len(r.WinnersTA))
		}
		for i := range r.Winners {
			// +TA must improve (or at least not worsen) every winner.
			if r.WinnersTA[i].GTRMax > r.Winners[i].GTRMax {
				t.Errorf("%s winner %d: +TA worsened %d -> %d", r.Name, i, r.Winners[i].GTRMax, r.WinnersTA[i].GTRMax)
			}
			// LB must not exceed the +TA result.
			if float64(r.WinnersTA[i].GTRMax) < r.WinnersTA[i].LB-1e-6*r.WinnersTA[i].LB {
				t.Errorf("%s winner %d: GTR %d below LB %g", r.Name, i, r.WinnersTA[i].GTRMax, r.WinnersTA[i].LB)
			}
		}
		// Refinement claim: GTRmax <= GTRnoref.
		if r.Ours.GTRMax > r.OursNoRef {
			t.Errorf("%s: refinement worsened: %d > %d", r.Name, r.Ours.GTRMax, r.OursNoRef)
		}
		// Headline claim: ours no worse than every winner's own flow.
		for i := range r.Winners {
			if r.Ours.GTRMax > r.Winners[i].GTRMax {
				t.Errorf("%s: ours %d worse than winner %d's %d", r.Name, r.Ours.GTRMax, i+1, r.Winners[i].GTRMax)
			}
		}
	}
	ratios, ratiosTA := GeoMeanRatios(results)
	for i := range ratios {
		if ratios[i] < 1-1e-9 {
			t.Errorf("winner %d ratio %.4f < 1: ours should win on average", i+1, ratios[i])
		}
		if ratiosTA[i] > ratios[i]+1e-9 {
			t.Errorf("winner %d: +TA ratio %.4f worse than own %.4f", i+1, ratiosTA[i], ratios[i])
		}
	}
	var buf bytes.Buffer
	WriteTableII(&buf, results)
	out := buf.String()
	for _, label := range []string{"1st GTRmax", "2nd+TA GTRmax", "Ours GTRnoref", "Ours LB"} {
		if !strings.Contains(out, label) {
			t.Errorf("rendered Table II missing %q", label)
		}
	}
	if Summary(results) == "" {
		t.Error("empty summary")
	}
}

func TestFig3a(t *testing.T) {
	b, err := Fig3a(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if b.Total() <= 0 {
		t.Fatal("no time measured")
	}
	lr, route, parse, output, legal := b.Percent()
	sum := lr + route + parse + output + legal
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("percentages sum to %.2f", sum)
	}
	// Shape of Fig. 3(a): LR dominates, legalization+refinement is tiny.
	if lr < route {
		t.Logf("note: LR (%.1f%%) below routing (%.1f%%) at this scale", lr, route)
	}
	if legal > lr {
		t.Errorf("legalization (%.1f%%) exceeds LR (%.1f%%)", legal, lr)
	}
	var buf bytes.Buffer
	WriteFig3a(&buf, b)
	if !strings.Contains(buf.String(), "Lagrangian Relaxation") {
		t.Error("rendered Fig 3a missing label")
	}
}

// TestFig3aValidatesOptions checks that Fig3a solves through Run, so the
// Config's Workers and Partitions reach the solver and are validated there.
func TestFig3aValidatesOptions(t *testing.T) {
	cfg := smallCfg()
	cfg.Partitions = -1
	_, err := Fig3a(cfg)
	var oe *tdmroute.OptionError
	if !errors.As(err, &oe) || oe.Field != "partitions" {
		t.Fatalf("Fig3a with Partitions -1: err = %v, want an *OptionError for partitions", err)
	}
}

func TestFig3b(t *testing.T) {
	series, err := Fig3b(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 2 {
		t.Fatalf("series too short: %d", len(series))
	}
	for i, p := range series {
		if p.Iter != i {
			t.Fatalf("iteration %d labeled %d", i, p.Iter)
		}
		if p.LB > p.Z+1e-6*p.Z {
			t.Fatalf("iter %d: LB %g above z %g", i, p.LB, p.Z)
		}
	}
	// Convergence: final gap below initial gap.
	first := series[0].Z - series[0].LB
	last := series[len(series)-1].Z - series[len(series)-1].LB
	if last > first {
		t.Errorf("gap grew: %g -> %g", first, last)
	}
	var buf bytes.Buffer
	WriteFig3b(&buf, series)
	if !strings.HasPrefix(buf.String(), "iter,z,lb\n") {
		t.Error("CSV header missing")
	}
}

func TestAblation(t *testing.T) {
	rows, err := Ablation(smallCfg(), 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var smaTotal, subTotal float64
	for _, r := range rows {
		smaTotal += r.GapSigmoidSMA
		subTotal += r.GapSubgradient
	}
	if smaTotal > subTotal {
		t.Errorf("Sigmoid+SMA total gap %g worse than subgradient %g", smaTotal, subTotal)
	}
	var buf bytes.Buffer
	WriteAblation(&buf, rows)
	if !strings.Contains(buf.String(), "Sigmoid+SMA") {
		t.Error("rendered ablation missing header")
	}
}

func TestEpsilonMapping(t *testing.T) {
	if epsilonFor("synopsys03") != 0.0027 {
		t.Error("small benchmark epsilon wrong")
	}
	if epsilonFor("synopsys06") != 0.0005 || epsilonFor("hidden03") != 0.0005 {
		t.Error("large benchmark epsilon wrong")
	}
}

func TestConfigUnknownBenchmark(t *testing.T) {
	_, err := TableI(Config{Scale: 0.01, Benchmarks: []string{"bogus"}})
	if err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPow2Ablation(t *testing.T) {
	rows, err := Pow2Ablation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GTRPow2 < r.GTREven {
			t.Errorf("%s: restricted domain beat the even domain: %d < %d", r.Name, r.GTRPow2, r.GTREven)
		}
		if r.Verified == 0 {
			t.Errorf("%s: no pow2 frames verified", r.Name)
		}
	}
	var buf bytes.Buffer
	WritePow2Ablation(&buf, rows)
	if !strings.Contains(buf.String(), "pow2") {
		t.Error("rendered pow2 ablation missing header")
	}
}

func TestRouterAblation(t *testing.T) {
	rows, err := RouterAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, v := range []int64{r.GTRFull, r.GTRNoRipUp, r.GTRNoTheta, r.GTRBaseline} {
			if v <= 0 {
				t.Errorf("%s: nonpositive GTR %d", r.Name, v)
			}
		}
	}
	var buf bytes.Buffer
	WriteRouterAblation(&buf, rows)
	if !strings.Contains(buf.String(), "no rip-up") {
		t.Error("rendered router ablation missing column")
	}
}

func TestScaling(t *testing.T) {
	rows, err := Scaling("synopsys01", []float64{0.001, 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Nets <= rows[0].Nets {
		t.Errorf("net counts not growing: %d -> %d", rows[0].Nets, rows[1].Nets)
	}
	for _, r := range rows {
		if r.GTR <= 0 || r.Time <= 0 {
			t.Errorf("row = %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteScaling(&buf, "synopsys01", rows)
	if !strings.Contains(buf.String(), "GTR_max") {
		t.Error("rendered scaling missing header")
	}
	if _, err := Scaling("bogus", []float64{0.01}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestWriteTableIICSV(t *testing.T) {
	results, err := TableII(Config{Scale: 0.002, Benchmarks: []string{"synopsys01"}}, DefaultWinners())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteTableIICSV(&buf, results)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 3 winners x 2 rows + noref + ours = 1 + 8.
	if len(lines) != 9 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "benchmark,flow,gtr_max,lb,iter,time_s" {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "synopsys01,") {
			t.Errorf("row missing benchmark: %q", l)
		}
	}
}

func TestProgressHook(t *testing.T) {
	var lines []string
	cfg := Config{Scale: 0.002, Benchmarks: []string{"synopsys01"},
		Progress: func(l string) { lines = append(lines, l) }}
	if _, err := TableII(cfg, DefaultWinners()); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "synopsys01 done") {
		t.Errorf("progress lines = %v", lines)
	}
}
