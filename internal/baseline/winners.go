package baseline

import "tdmroute/internal/problem"

// Winner is one emulated contest entry: a router plus its own TDM ratio
// assigner. A ModeAssignOnly tdmroute.Run on Route's output instead of
// Assign reproduces the "+TA" rows of Table II.
type Winner struct {
	// Name is the Table II row label ("1st", "2nd", "3rd").
	Name string
	// Route computes the entry's routing topology.
	Route func(in *problem.Instance) (problem.Routing, error)
	// Assign computes the entry's own (heuristic) TDM ratios.
	Assign func(in *problem.Instance, routes problem.Routing) problem.Assignment
}

// Winners returns the three emulated contest entries in Table II order.
// Quality ordering mirrors the paper's observations: "1st" is the fastest
// and has the worst GTR_max; "3rd" has the best GTR_max among the three at
// the highest routing cost.
func Winners() []Winner {
	return []Winner{
		{Name: "1st", Route: RouteShortestPath, Assign: AssignUniform},
		{Name: "2nd", Route: RouteCongestion, Assign: AssignGroupCount},
		{Name: "3rd", Route: RoutePathFinder, Assign: AssignProportional},
	}
}

// Solve runs the winner's full flow and returns a legal solution.
func (w Winner) Solve(in *problem.Instance) (*problem.Solution, error) {
	routes, err := w.Route(in)
	if err != nil {
		return nil, err
	}
	assign := w.Assign(in, routes)
	return &problem.Solution{Routes: routes, Assign: assign}, nil
}
