package route

import (
	"context"
	"testing"

	"tdmroute/internal/problem"
)

func TestOrderAblationThetaNotWorse(t *testing.T) {
	// θ-ascending ordering should produce a max-φ estimate no worse, on
	// average, than netlist order (the Sec. III-A claim). Summed over
	// seeds to absorb noise.
	var thetaTotal, idTotal int64
	for seed := int64(0); seed < 6; seed++ {
		in := randomInstance(10, 8, 80, 30, 200+seed)
		rt, _, err := Route(context.Background(), in, Options{RipUpRounds: -1, Order: OrderThetaAsc})
		if err != nil {
			t.Fatal(err)
		}
		rid, _, err := Route(context.Background(), in, Options{RipUpRounds: -1, Order: OrderNetID})
		if err != nil {
			t.Fatal(err)
		}
		thetaTotal += maxPhi(in, rt)
		idTotal += maxPhi(in, rid)
	}
	if thetaTotal > idTotal+idTotal/10 {
		t.Errorf("θ ordering clearly worse than netlist order: %d vs %d", thetaTotal, idTotal)
	}
	t.Logf("max-φ totals: θ-asc=%d netlist=%d", thetaTotal, idTotal)
}

func TestOrderVariantsAllValid(t *testing.T) {
	in := randomInstance(10, 8, 50, 20, 3)
	for _, ord := range []NetOrder{OrderThetaAsc, OrderNetID} {
		routes, _, err := Route(context.Background(), in, Options{Order: ord})
		if err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
		if err := problem.ValidateRouting(in, routes); err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
	}
}

func TestRerouteNetsKeepsValidity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomInstance(12, 10, 60, 25, 400+seed)
		routes, _, err := Route(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Rip a handful of nets and reroute them against the rest.
		nets := []int{0, 5, 10, 15}
		if err := RerouteNets(context.Background(), in, routes, nets, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := problem.ValidateRouting(in, routes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRerouteNetsMismatched(t *testing.T) {
	in := randomInstance(8, 5, 10, 4, 1)
	if err := RerouteNets(context.Background(), in, make(problem.Routing, 3), []int{0}, Options{}); err == nil {
		t.Error("mismatched routing accepted")
	}
}
