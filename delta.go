// Delta/ECO re-solve: ModeDelta patches the retained warm state of a
// previous solve — the routing session with its APSP LUT, memoized terminal
// MSTs and usage substrate, and the TDM session's LR buffers and captured
// multipliers — and re-routes only the nets a change actually touches. An
// engineering change order (ECO) that edits a handful of nets therefore
// costs O(changed) routing work plus a warm-started relaxation, instead of
// the O(instance) cold pipeline, while producing a solution byte-identical
// to cold-solving the patched instance (the runDeltaCold test reference,
// pinned by the delta equivalence suite).
package tdmroute

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// Delta describes an ECO edit to a solved instance: nets added or removed,
// group membership changes, and edge capacity pressure. A Delta is validated
// in full against the base instance before anything is mutated, so a
// rejected Delta leaves the warm state untouched and reusable.
//
// Deltas edit membership of existing NetGroups only; the group count of an
// instance is invariant under deltas (the multiplier state is keyed by
// group).
type Delta struct {
	// AddNets are appended to the netlist in order; the new nets receive the
	// next net ids. Each net's Groups lists the existing group ids it joins,
	// strictly increasing.
	AddNets []Net
	// RemoveNets lists existing net ids to delete. Removed nets are
	// tombstoned — their terminals are cleared, they leave their groups, and
	// their routes are ripped — and their ids are never reused.
	RemoveNets []int
	// GroupAdd / GroupRemove edit the membership of existing nets in
	// existing groups.
	GroupAdd    []GroupEdit
	GroupRemove []GroupEdit
	// EdgeBias applies additive phantom congestion to FPGA-graph edges — the
	// ECO model of an edge capacity change. Positive bias steers the reroute
	// away from the edge; a negative delta withdraws bias applied by an
	// earlier Delta. Every net currently routed through a biased edge is
	// rerouted. The cumulative bias of an edge stays within
	// [0, route.MaxEdgeBias].
	EdgeBias []EdgeBiasEdit
}

// GroupEdit adds or removes one net from one NetGroup.
type GroupEdit struct {
	Group int
	Net   int
}

// EdgeBiasEdit adjusts the phantom congestion of one FPGA-graph edge.
type EdgeBiasEdit struct {
	Edge  int
	Delta int
}

// MaxEdgeBias is the cumulative phantom-load cap per edge; see
// Delta.EdgeBias.
const MaxEdgeBias = route.MaxEdgeBias

// validate checks every edit against the current instance state without
// mutating anything. priorBias, when non-nil, reports the cumulative bias an
// edge already carries (from earlier deltas on the same warm state).
func (d *Delta) validate(in *Instance, priorBias func(edge int) int64) error {
	numNets := len(in.Nets)
	removed := make(map[int]bool, len(d.RemoveNets))
	for _, n := range d.RemoveNets {
		if n < 0 || n >= numNets {
			return fmt.Errorf("tdmroute: delta: removed net %d out of range [0, %d)", n, numNets)
		}
		if len(in.Nets[n].Terminals) == 0 {
			return fmt.Errorf("tdmroute: delta: net %d is already removed", n)
		}
		if removed[n] {
			return fmt.Errorf("tdmroute: delta: net %d removed twice", n)
		}
		removed[n] = true
	}

	nv := in.G.NumVertices()
	for i, nn := range d.AddNets {
		if len(nn.Terminals) == 0 {
			return fmt.Errorf("tdmroute: delta: added net %d has no terminals", i)
		}
		seen := make(map[int]bool, len(nn.Terminals))
		for _, t := range nn.Terminals {
			if t < 0 || t >= nv {
				return fmt.Errorf("tdmroute: delta: added net %d: terminal %d out of range [0, %d)", i, t, nv)
			}
			if seen[t] {
				return fmt.Errorf("tdmroute: delta: added net %d: duplicate terminal %d", i, t)
			}
			seen[t] = true
		}
		for k, g := range nn.Groups {
			if g < 0 || g >= len(in.Groups) {
				return fmt.Errorf("tdmroute: delta: added net %d: group %d out of range [0, %d)", i, g, len(in.Groups))
			}
			if k > 0 && nn.Groups[k-1] >= g {
				return fmt.Errorf("tdmroute: delta: added net %d: groups not strictly increasing", i)
			}
		}
	}

	checkEdit := func(kind string, ge GroupEdit) error {
		if ge.Group < 0 || ge.Group >= len(in.Groups) {
			return fmt.Errorf("tdmroute: delta: %s: group %d out of range [0, %d)", kind, ge.Group, len(in.Groups))
		}
		if ge.Net < 0 || ge.Net >= numNets {
			return fmt.Errorf("tdmroute: delta: %s: net %d out of range [0, %d); group edits apply to pre-existing nets (added nets declare their groups inline)", kind, ge.Net, numNets)
		}
		if len(in.Nets[ge.Net].Terminals) == 0 || removed[ge.Net] {
			return fmt.Errorf("tdmroute: delta: %s: net %d is removed", kind, ge.Net)
		}
		return nil
	}
	editSeen := make(map[GroupEdit]string, len(d.GroupAdd)+len(d.GroupRemove))
	for _, ge := range d.GroupRemove {
		if err := checkEdit("group remove", ge); err != nil {
			return err
		}
		if !containsSorted(in.Groups[ge.Group].Nets, ge.Net) {
			return fmt.Errorf("tdmroute: delta: group remove: net %d is not a member of group %d", ge.Net, ge.Group)
		}
		if editSeen[ge] != "" {
			return fmt.Errorf("tdmroute: delta: duplicate group edit (group %d, net %d)", ge.Group, ge.Net)
		}
		editSeen[ge] = "remove"
	}
	for _, ge := range d.GroupAdd {
		if err := checkEdit("group add", ge); err != nil {
			return err
		}
		if containsSorted(in.Groups[ge.Group].Nets, ge.Net) {
			return fmt.Errorf("tdmroute: delta: group add: net %d is already a member of group %d", ge.Net, ge.Group)
		}
		if editSeen[ge] != "" {
			return fmt.Errorf("tdmroute: delta: conflicting group edits (group %d, net %d)", ge.Group, ge.Net)
		}
		editSeen[ge] = "add"
	}

	ne := in.G.NumEdges()
	cum := make(map[int]int64, len(d.EdgeBias))
	for _, eb := range d.EdgeBias {
		if eb.Edge < 0 || eb.Edge >= ne {
			return fmt.Errorf("tdmroute: delta: edge %d out of range [0, %d)", eb.Edge, ne)
		}
		c, ok := cum[eb.Edge]
		if !ok && priorBias != nil {
			c = priorBias(eb.Edge)
		}
		c += int64(eb.Delta)
		if c < 0 {
			return fmt.Errorf("tdmroute: delta: edge %d cumulative bias would become negative (%d)", eb.Edge, c)
		}
		if c > MaxEdgeBias {
			return fmt.Errorf("tdmroute: delta: edge %d cumulative bias %d exceeds the maximum %d", eb.Edge, c, MaxEdgeBias)
		}
		cum[eb.Edge] = c
	}
	return nil
}

// apply mutates in according to d — removals, then membership edits, then
// additions — and returns the net ids assigned to AddNets. It must run after
// a successful validate; apply itself cannot fail.
func (d *Delta) apply(in *Instance) (added []int) {
	for _, n := range d.RemoveNets {
		for _, gi := range in.Nets[n].Groups {
			in.Groups[gi].Nets = removeSorted(in.Groups[gi].Nets, n)
		}
		in.Nets[n] = Net{} // tombstone; the id is never reused
	}
	for _, ge := range d.GroupRemove {
		in.Groups[ge.Group].Nets = removeSorted(in.Groups[ge.Group].Nets, ge.Net)
		in.Nets[ge.Net].Groups = removeSorted(in.Nets[ge.Net].Groups, ge.Group)
	}
	for _, ge := range d.GroupAdd {
		in.Groups[ge.Group].Nets = insertSorted(in.Groups[ge.Group].Nets, ge.Net)
		in.Nets[ge.Net].Groups = insertSorted(in.Nets[ge.Net].Groups, ge.Group)
	}
	for _, nn := range d.AddNets {
		id := len(in.Nets)
		added = append(added, id)
		net := Net{
			Terminals: append([]int(nil), nn.Terminals...),
			Groups:    append([]int(nil), nn.Groups...),
		}
		in.Nets = append(in.Nets, net)
		for _, gi := range net.Groups {
			// id exceeds every existing member, so appending keeps the
			// member list sorted.
			in.Groups[gi].Nets = append(in.Groups[gi].Nets, id)
		}
	}
	return added
}

// Apply validates d against in and applies the net and group edits in place,
// for building a patched instance outside a warm session (for example the
// cold re-solve an ECO is compared against). EdgeBias entries are validated
// but have no instance-level representation — capacity pressure lives in the
// routing state, not the netlist — so they are otherwise ignored here.
func (d *Delta) Apply(in *Instance) error {
	if err := d.validate(in, nil); err != nil {
		return err
	}
	d.apply(in)
	return nil
}

// containsSorted reports whether sorted slice s contains v.
func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// insertSorted inserts v into sorted slice s, keeping it sorted.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSorted removes v from sorted slice s, keeping it sorted.
func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// WarmHandle is the retained solver state of one instance: the live
// instance, the routing and TDM sessions, and the multipliers captured by
// the last relaxation. Run returns it in Response.Warm when Request.Retain
// is set, and consumes it through Request.Base in ModeDelta. A handle is
// single-threaded — at most one Run may use it at a time — and never travels
// over the wire (the serve layer pins handles to the node that built them).
type WarmHandle struct {
	in     *Instance
	opt    Options // normalized base options; delta solves reuse them
	rs     *route.Session
	ts     *tdm.Session
	lambda []float64
	// err poisons the handle: a delta that failed after mutating the state
	// leaves it unusable, and every later use reports the original failure.
	err error
}

// Instance returns the handle's live instance. Deltas mutate it in place;
// clone it first if a frozen copy is needed.
func (h *WarmHandle) Instance() *Instance { return h.in }

// Routes returns a snapshot of the handle's current routing topology.
func (h *WarmHandle) Routes() Routing { return h.rs.Routes() }

// Lambda returns a copy of the multipliers captured by the last relaxation.
func (h *WarmHandle) Lambda() []float64 { return append([]float64(nil), h.lambda...) }

// Err reports why the handle became unusable, or nil while it is healthy.
func (h *WarmHandle) Err() error { return h.err }

// errCurtailed is the fallback Degraded cause when a stage was curtailed but
// neither the stage's interruption record nor the context carries an error.
var errCurtailed = errors.New("tdmroute: run curtailed without a recorded cause")

// degradedCause picks the definite cause of a curtailed stage: the stage's
// own interruption record when present, the context error otherwise, and the
// errCurtailed sentinel when neither is set. A Degraded report never carries
// a nil Cause — the serve layer and the chaos invariant both rely on that.
func degradedCause(rep Report, ctx context.Context) error {
	if rep.Interrupted != nil {
		return rep.Interrupted
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return errCurtailed
}

// stageDegraded is the Degraded report of a run whose earliest curtailed
// stage is stage, or nil when stage is "" (the full budget ran).
func stageDegraded(ctx context.Context, stage Stage, rep Report) *Degraded {
	if stage == "" {
		return nil
	}
	return &Degraded{
		Stage:        stage,
		Cause:        degradedCause(rep, ctx),
		LRIterations: rep.Iterations,
		IncumbentGTR: rep.GTRMax,
	}
}

// runDelta is the ModeDelta arm of Run: validate the delta against the
// handle, patch the instance and the routing session, reroute only the
// affected nets, and re-run the assignment warm-started from the captured
// multipliers. The result is byte-identical to cold-solving the patched
// instance from the same pre-delta routing (the runDeltaCold test
// reference).
//
// Failure semantics: a delta rejected by validation leaves the handle
// untouched and reusable. A failure after the state has been mutated —
// cancellation before the reroute completes, a contained panic, a hard
// assignment error — poisons the handle (WarmHandle.Err); there is no legal
// topology for the patched instance at that point, so later requests must
// fall back to a cold solve.
func runDelta(ctx context.Context, req Request) (*Response, error) {
	h := req.Base
	if h == nil {
		return nil, errors.New("tdmroute: Run: ModeDelta requires Request.Base (a warm handle from a Retain run)")
	}
	if req.Delta == nil {
		return nil, errors.New("tdmroute: Run: ModeDelta requires Request.Delta")
	}
	if h.err != nil {
		return nil, fmt.Errorf("tdmroute: Run: warm handle is poisoned by an earlier failed delta: %w", h.err)
	}
	if err := req.Delta.validate(h.in, h.rs.EdgeBias); err != nil {
		return nil, err
	}

	added := req.Delta.apply(h.in)
	h.rs.Grow()
	if err := h.rs.Remove(req.Delta.RemoveNets); err != nil {
		h.err = err
		return nil, err
	}
	for _, eb := range req.Delta.EdgeBias {
		if err := h.rs.AddEdgeBias(eb.Edge, eb.Delta); err != nil {
			h.err = err
			return nil, err
		}
	}
	affected := deltaAffectedNets(h.rs.RoutesAlias(), added, req.Delta.EdgeBias)

	res := &Response{Mode: ModeDelta}
	t0 := time.Now()
	err := par.Capture(func() error {
		return h.rs.Reroute(ctx, affected)
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		h.err = err
		return nil, err
	}
	if verr := problem.ValidateRouting(h.in, h.rs.RoutesAlias()); verr != nil {
		h.err = verr
		return nil, fmt.Errorf("tdmroute: delta reroute produced invalid topology: %w", verr)
	}
	res.RouteStats = RouteStats{
		RoutedNets: len(affected),
		RippedNets: len(affected) - len(added) + len(req.Delta.RemoveNets),
	}

	// Progress wiring and the multiplier callback come from this request,
	// not from the request that built the handle.
	topt := h.opt.TDM
	topt.Trace = req.Options.TDM.Trace
	topt.CaptureLambda = req.Options.TDM.CaptureLambda
	topt.WarmLambda = h.lambda
	var captured []float64
	assign, rep, times, stage, err := assignTimed(ctx, h.ts, h.in, h.rs.RoutesAlias(), captureLambda(topt, &captured))
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		h.err = err
		return nil, err
	}
	if captured != nil {
		h.lambda = captured
	}
	res.Report = rep
	res.Solution = &Solution{Routes: h.rs.Routes(), Assign: assign}
	res.Degraded = stageDegraded(ctx, stage, rep)
	res.Warm = h
	return res, nil
}

// deltaAffectedNets returns, in ascending order, the nets a delta must
// reroute: every added net plus every net currently routed through an edge
// whose bias changed. Removed nets are already unrouted by the time this
// runs, so they drop out naturally.
func deltaAffectedNets(routes Routing, added []int, bias []EdgeBiasEdit) []int {
	touched := make(map[int]bool, len(added))
	for _, n := range added {
		touched[n] = true
	}
	if len(bias) > 0 {
		edge := make(map[int]bool, len(bias))
		for _, eb := range bias {
			if eb.Delta != 0 {
				edge[eb.Edge] = true
			}
		}
		for n, es := range routes {
			if touched[n] {
				continue
			}
			for _, e := range es {
				if edge[e] {
					touched[n] = true
					break
				}
			}
		}
	}
	out := make([]int, 0, len(touched))
	for n := range touched {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
