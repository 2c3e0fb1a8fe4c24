// Session: the reusable incremental core of the router. The FPGA graph is
// static across the whole co-optimization flow, so everything derived from
// it alone — the APSP distance LUT, the per-net terminal MSTs, the
// per-worker solver scratch — is computed once per session and shared by
// the initial routing, every rip-up round, and every feedback-loop reroute.
// The cold entry points (Route, RerouteNets) are thin wrappers that spin up
// a throwaway session, and the session-reused results are byte-identical to
// them by construction: the same code runs against the same state, only its
// lifetime differs.
package route

import (
	"context"
	"fmt"

	"tdmroute/internal/problem"
)

// Session owns the routing state of one instance across an iterated solve:
// the APSP LUT (built exactly once), the memoized terminal MSTs, the
// per-worker search engines with their epoch-reset buffers, and the current
// routing with its per-edge usage. A Session is not safe for concurrent
// use.
type Session struct {
	r      *router
	routed bool

	// Undo state of the last successful Reroute.
	undoNets  []int
	undoSaved [][]int

	// bias is the phantom congestion added per edge by AddEdgeBias (ECO
	// edge-capacity edits), folded into the router's usage. Tracked so the
	// non-negativity invariant can be enforced: usage must never drop below
	// the load of the real nets, or rip-up decrements would underflow.
	bias []int64
}

// NewSession creates a session for in. The APSP LUT is built here — once —
// and reused by every subsequent call on the session.
func NewSession(in *problem.Instance, opt Options) *Session {
	return &Session{r: newRouter(in, opt)}
}

// NewSessionFromRouting creates a session seeded with an existing topology
// (for example one produced by a previous solve) instead of routing from
// scratch. The routing is copied into the session; the caller's slice is
// not retained.
func NewSessionFromRouting(in *problem.Instance, routes problem.Routing, opt Options) (*Session, error) {
	if len(routes) != len(in.Nets) {
		return nil, fmt.Errorf("route: routing has %d nets, instance has %d", len(routes), len(in.Nets))
	}
	s := &Session{r: newRouter(in, opt), routed: true}
	for n, edges := range routes {
		s.r.routes[n] = edges
		for _, e := range edges {
			s.r.usage[e]++
		}
	}
	return s, nil
}

// Route computes the initial topology and runs the rip-up refinement. It
// may be called at most once per session; sessions seeded from an existing
// routing are already routed.
//
// Cancellation semantics: the context is checked at deterministic
// boundaries only — per wave of the initial routing (per net in the
// partitioned path), and per rip-up round (including per member net inside a
// round, which then reverts the partial round). If ctx is cancelled before
// the initial routing completes there is no legal topology and Route
// returns the cancellation error; once the initial routing exists, a
// cancellation merely curtails the rip-up refinement and the current legal
// topology is returned with a nil error (the caller observes ctx.Err() to
// know the refinement was cut short).
func (s *Session) Route(ctx context.Context) (problem.Routing, Stats, error) {
	if s.routed {
		return nil, Stats{}, fmt.Errorf("route: session already routed")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.routed = true
	r := s.r
	if err := r.initialRoute(ctx); err != nil {
		return nil, Stats{}, err
	}
	rounds := r.opt.ripUpRounds()
	for round := 0; round < rounds; round++ {
		if ctx.Err() != nil {
			break // degrade: keep the current legal topology
		}
		improved, err := r.ripUpWorstGroup(ctx)
		if err != nil {
			return nil, Stats{}, err
		}
		r.stats.RipUpRounds++
		if !improved {
			break // converged: the worst group cannot be improved
		}
	}
	// Feedback-loop reroutes don't rip by φ(g), so drop the incidence
	// index rather than maintain it.
	r.cong = nil
	return r.routes, r.stats, nil
}

// Reroute rips the given nets out of the session's topology and reroutes
// them sequentially against the remaining global congestion (edge cost =
// nets currently routed on the edge), exactly as the cold RerouteNets does.
// Duplicate entries in nets are ignored after the first occurrence. On any
// error — including cancellation, checked before each net — the session's
// topology is rolled back to its pre-call state.
//
// A successful Reroute records undo state: UndoReroute restores the
// previous routes, which is how a rejected feedback round is discarded
// without cloning the full routing.
func (s *Session) Reroute(ctx context.Context, nets []int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	r := s.r
	// Dedupe while preserving first-occurrence order: ripping the same net
	// twice would decrement (and underflow) the usage of its edges twice.
	seen := make(map[int]bool, len(nets))
	dedup := make([]int, 0, len(nets))
	for _, n := range nets {
		if n < 0 || n >= len(r.routes) {
			return fmt.Errorf("route: net index %d out of range [0, %d)", n, len(r.routes))
		}
		if !seen[n] {
			seen[n] = true
			dedup = append(dedup, n)
		}
	}

	saved := make([][]int, len(dedup))
	for i, n := range dedup {
		saved[i] = r.routes[n]
	}
	for _, n := range dedup {
		for _, e := range r.routes[n] {
			r.usage[e]--
		}
		r.routes[n] = nil
	}
	for _, n := range dedup {
		if err := ctx.Err(); err != nil {
			r.revertGroup(dedup, saved)
			return fmt.Errorf("route: reroute interrupted: %w", err)
		}
		mst, err := r.terminalMST(n)
		if err != nil {
			r.revertGroup(dedup, saved)
			return err
		}
		if err := r.embed(n, mst, r.usage); err != nil {
			r.revertGroup(dedup, saved)
			return err
		}
	}
	s.undoNets, s.undoSaved = dedup, saved
	return nil
}

// Grow extends the session's per-net state to cover nets appended to the
// instance's netlist since the session was created (ECO net additions). The
// appended nets start unrouted; route them with Reroute. Per-edge state is
// untouched: the FPGA graph is immutable for the life of a session, so the
// APSP LUT and usage array stay valid. Growing also invalidates nothing —
// the memoized MSTs of existing nets are pure functions of their (unchanged)
// terminal lists.
func (s *Session) Grow() {
	r := s.r
	n := len(r.in.Nets)
	for len(r.routes) < n {
		r.routes = append(r.routes, nil)
		r.mstCost = append(r.mstCost, 0)
		r.mst = append(r.mst, nil)
		r.mstDone = append(r.mstDone, false)
	}
}

// Remove permanently rips the given nets out of the session's topology (ECO
// net removals): their usage contributions are released and their routes
// cleared. Unlike Reroute there is no undo — the caller is deleting the
// nets, and the instance entries are expected to be tombstoned alongside.
// Duplicate entries are ignored after the first occurrence; ripping an
// already-unrouted net is a no-op.
func (s *Session) Remove(nets []int) error {
	r := s.r
	seen := make(map[int]bool, len(nets))
	for _, n := range nets {
		if n < 0 || n >= len(r.routes) {
			return fmt.Errorf("route: net index %d out of range [0, %d)", n, len(r.routes))
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range r.routes[n] {
			r.usage[e]--
		}
		r.routes[n] = nil
	}
	return nil
}

// MaxEdgeBias bounds the cumulative phantom load AddEdgeBias may pile onto
// one edge. Usage is a uint64 shared with real net loads, and the searches
// read it in place as edge costs; the cap keeps every edge cost, and so
// every path cost, far inside the search key's Primary range on any
// realistic instance.
const MaxEdgeBias = 1 << 20

// AddEdgeBias adds delta phantom nets of congestion to an edge — the ECO
// model of an edge capacity change. Positive bias makes the edge look
// busier, steering subsequent reroutes away from it; a negative delta
// withdraws bias added earlier. The cumulative bias of an edge can never go
// negative (usage must keep covering the real nets) nor exceed MaxEdgeBias;
// a violating delta is rejected without changing anything.
func (s *Session) AddEdgeBias(edge, delta int) error {
	r := s.r
	if edge < 0 || edge >= len(r.usage) {
		return fmt.Errorf("route: edge index %d out of range [0, %d)", edge, len(r.usage))
	}
	if s.bias == nil {
		s.bias = make([]int64, len(r.usage))
	}
	nb := s.bias[edge] + int64(delta)
	if nb < 0 {
		return fmt.Errorf("route: edge %d cumulative bias would become negative (%d)", edge, nb)
	}
	if nb > MaxEdgeBias {
		return fmt.Errorf("route: edge %d cumulative bias %d exceeds the maximum %d", edge, nb, MaxEdgeBias)
	}
	s.bias[edge] = nb
	r.usage[edge] = uint64(problem.SatAdd64(int64(r.usage[edge]), int64(delta)))
	return nil
}

// EdgeBias returns the cumulative phantom load applied to an edge so far.
func (s *Session) EdgeBias(edge int) int64 {
	if s.bias == nil || edge < 0 || edge >= len(s.bias) {
		return 0
	}
	return s.bias[edge]
}

// UndoReroute restores the routes replaced by the last successful Reroute.
// It is a no-op if there is nothing to undo.
func (s *Session) UndoReroute() {
	if s.undoNets == nil {
		return
	}
	s.r.revertGroup(s.undoNets, s.undoSaved)
	s.undoNets, s.undoSaved = nil, nil
}

// Routes returns a snapshot of the session's current topology. The header
// array is copied, so later Reroute calls do not disturb it; the per-net
// edge slices are shared but immutable once created (every reroute installs
// a freshly built tree).
func (s *Session) Routes() problem.Routing {
	return append(problem.Routing(nil), s.r.routes...)
}

// RoutesAlias returns the session's live routing without copying. The
// caller must not modify it and must not hold it across a Reroute; it
// exists for validation passes that would otherwise copy per round.
func (s *Session) RoutesAlias() problem.Routing { return s.r.routes }

// Route computes a routing topology for in. The returned routing satisfies
// problem.ValidateRouting for every connected instance. It is the cold
// entry point, equivalent to NewSession(in, opt).Route(ctx); see
// Session.Route for the cancellation semantics.
func Route(ctx context.Context, in *problem.Instance, opt Options) (problem.Routing, Stats, error) {
	return NewSession(in, opt).Route(ctx)
}

// RerouteNets rips the given nets out of an existing topology and reroutes
// them sequentially against the remaining global congestion. routes is
// modified in place. It is the cold building block of the iterated
// co-optimization extension, where the group realizing GTR_max — known only
// after TDM assignment — is rerouted; the iterated solver itself reuses one
// Session instead. Duplicate entries in nets are ignored after the first
// occurrence.
//
// The context is checked before each net's reroute; on cancellation,
// RerouteNets returns the cancellation error and routes is left unmodified.
func RerouteNets(ctx context.Context, in *problem.Instance, routes problem.Routing, nets []int, opt Options) error {
	s, err := NewSessionFromRouting(in, routes, opt)
	if err != nil {
		return err
	}
	if err := s.Reroute(ctx, nets); err != nil {
		return err
	}
	for _, n := range s.undoNets {
		routes[n] = s.r.routes[n]
	}
	return nil
}
