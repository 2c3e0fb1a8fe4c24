package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tdmroute"
	"tdmroute/internal/chaos"
	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
)

func testInstance(t *testing.T) *tdmroute.Instance {
	t.Helper()
	cfg, err := gen.SuiteConfig("synopsys01", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Name = "synopsys01"
	return in
}

// fleet is n real tdmroutd servers, each behind a chaos gate, plus the
// plumbing the tests need to find the one a given submission lands on.
type fleet struct {
	servers []*serve.Server
	gates   []*chaos.Gate
	urls    []string
	names   []string // URL hosts: the backend names the coordinator uses
	clients []*serve.Client
}

func startFleet(t *testing.T, n int, cfg serve.Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		s := serve.New(cfg)
		g := chaos.NewGate(s.Handler())
		ts := httptest.NewServer(g)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("backend shutdown: %v", err)
			}
			ts.Close()
		})
		f.servers = append(f.servers, s)
		f.gates = append(f.gates, g)
		f.urls = append(f.urls, ts.URL)
		f.names = append(f.names, strings.TrimPrefix(ts.URL, "http://"))
		f.clients = append(f.clients, &serve.Client{BaseURL: ts.URL})
	}
	return f
}

// startCoord runs a coordinator over the fleet. Probes are effectively off
// (one per hour) so breaker transitions in tests come only from request
// traffic and are deterministic.
func startCoord(t *testing.T, f *fleet, mut func(*Config)) (*Coordinator, *serve.Client) {
	t.Helper()
	cfg := Config{
		Backends:       f.urls,
		ProbeInterval:  time.Hour,
		RequestTimeout: 5 * time.Second,
		Logf:           t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		ts.Close()
	})
	return co, &serve.Client{BaseURL: ts.URL}
}

// victim returns the fleet index rendezvous placement picks for sub — the
// backend a chaos test must arm to hit the job's first dispatch.
func (f *fleet) victim(t *testing.T, co *Coordinator, sub serve.SubmitRequest) int {
	t.Helper()
	b := co.place(cacheKey(sub), nil)
	if b == nil {
		t.Fatal("placement returned no backend")
	}
	for i, name := range f.names {
		if name == b.name {
			return i
		}
	}
	t.Fatalf("placement chose unknown backend %s", b.name)
	return -1
}

// reference solves sub on a private ungated server and returns the terminal
// status, the canonical solution text, and the full event log — the ground
// truth the coordinator's answers must be byte-identical to.
func reference(t *testing.T, cfg serve.Config, sub serve.SubmitRequest) (*serve.JobStatus, []byte, []serve.Event) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("reference shutdown: %v", err)
		}
		ts.Close()
	}()
	c := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()
	st, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	var events []serve.Event
	if err := c.Stream(ctx, st.ID, func(e serve.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("reference run: state %s, error %q", final.State, final.Error)
	}
	text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	return final, text, events
}

// collectEvents streams one coordinator job's full event log.
func collectEvents(t *testing.T, c *serve.Client, id string) []serve.Event {
	t.Helper()
	var events []serve.Event
	if err := c.Stream(context.Background(), id, func(e serve.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return events
}

// metricValue extracts one sample from a text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// acceptedTotal sums tdmroutd_jobs_accepted_total over the fleet — the
// number of solves any backend has ever been asked for.
func (f *fleet) acceptedTotal(t *testing.T) float64 {
	t.Helper()
	var sum float64
	for i, c := range f.clients {
		if f.gates[i].Dead() {
			continue
		}
		text, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sum += metricValue(t, text, "tdmroutd_jobs_accepted_total")
	}
	return sum
}

// TestCoordinatorEndToEnd drives the happy path over the full stack: three
// distinct submissions across three backends, every answer byte-identical
// to a direct single-node run; then an identical resubmission answered from
// the content-addressed cache without any backend being asked to solve.
func TestCoordinatorEndToEnd(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	f := startFleet(t, 3, bcfg)
	co, c := startCoord(t, f, nil)
	ctx := context.Background()

	subs := []serve.SubmitRequest{
		{Instance: in},
		{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 2},
		{Instance: in, RipUp: 1},
	}
	type run struct {
		id   string
		text []byte
	}
	runs := make([]run, len(subs))
	for i, sub := range subs {
		st, err := c.Submit(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(st.ID, "c") {
			t.Fatalf("coordinator job id %q does not carry the coordinator prefix", st.ID)
		}
		runs[i].id = st.ID
	}
	for i, sub := range subs {
		final, err := c.Wait(ctx, runs[i].id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != serve.StateDone {
			t.Fatalf("job %s: state %s, error %q", runs[i].id, final.State, final.Error)
		}
		found := false
		for _, name := range f.names {
			if final.Backend == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("job %s: Backend %q is not a fleet member", runs[i].id, final.Backend)
		}
		text, err := c.SolutionBytes(ctx, runs[i].id, serve.FormatText)
		if err != nil {
			t.Fatal(err)
		}
		runs[i].text = text
		_, want, _ := reference(t, bcfg, sub)
		if !bytes.Equal(text, want) {
			t.Fatalf("job %s: coordinator solution differs from a direct run", runs[i].id)
		}
	}

	// Identical resubmission: answered from the cache, no backend solves.
	before := f.acceptedTotal(t)
	st, err := c.Submit(ctx, subs[0])
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone || final.Backend != "cache" {
		t.Fatalf("cache hit: state %s backend %q, want done from \"cache\"", final.State, final.Backend)
	}
	text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, runs[0].text) {
		t.Fatal("cache hit solution differs from the original run")
	}
	if after := f.acceptedTotal(t); after != before {
		t.Fatalf("cache hit invoked a backend: fleet accepted %v -> %v", before, after)
	}

	// The aggregated exposition: coordinator counters plus every backend's
	// own series under an injected backend label.
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	text2 := body.String()
	if got := metricValue(t, text2, "tdmcoord_cache_hits_total"); got != 1 {
		t.Fatalf("tdmcoord_cache_hits_total = %v, want 1", got)
	}
	if got := metricValue(t, text2, "tdmcoord_backends_live"); got != 3 {
		t.Fatalf("tdmcoord_backends_live = %v, want 3", got)
	}
	if got := metricValue(t, text2, fmt.Sprintf("tdmcoord_jobs_total{outcome=%q}", "done")); got != 4 {
		t.Fatalf("done outcomes = %v, want 4", got)
	}
	for _, name := range f.names {
		series := fmt.Sprintf("tdmroutd_jobs_accepted_total{backend=%q}", name)
		metricValue(t, text2, series) // fatal if absent
	}
	_ = co
}

// TestCoordinatorCacheSharedAcrossWorkers pins that the worker count is
// not part of the content address: a submission that differs from an
// earlier one only in workers is answered from the cache, without a
// backend solving it, and the cached bytes are what a direct run at the
// new worker count returns.
func TestCoordinatorCacheSharedAcrossWorkers(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	f := startFleet(t, 2, bcfg)
	_, c := startCoord(t, f, nil)
	ctx := context.Background()

	first := serve.SubmitRequest{Instance: in, Workers: 1}
	st, err := c.Submit(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != serve.StateDone {
		t.Fatalf("first job: %v, %+v", err, final)
	}

	before := f.acceptedTotal(t)
	second := serve.SubmitRequest{Instance: in, Workers: 4}
	st, err = c.Submit(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone || final.Backend != "cache" {
		t.Fatalf("workers=4 resubmission: state %s backend %q, want done from \"cache\"", final.State, final.Backend)
	}
	if after := f.acceptedTotal(t); after != before {
		t.Fatalf("workers=4 resubmission invoked a backend: fleet accepted %v -> %v", before, after)
	}
	text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if _, want, _ := reference(t, bcfg, second); !bytes.Equal(text, want) {
		t.Fatal("cached solution differs from a direct run at workers=4")
	}
}

// TestCoordinatorKillBackendReplay is the tentpole guarantee: the backend
// running a job is killed mid-LR, the coordinator re-dispatches, and the
// client-visible event stream and solution bytes are identical to an
// uninterrupted run — one job, no seam.
func TestCoordinatorKillBackendReplay(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	sub := serve.SubmitRequest{Instance: in}
	refFinal, refText, refEvents := reference(t, bcfg, sub)
	lrTotal := 0
	for _, e := range refEvents {
		if e.Type == "lr" {
			lrTotal++
		}
	}
	if lrTotal < 2 {
		t.Fatalf("reference run emitted %d LR events; the kill needs at least 2", lrTotal)
	}

	f := startFleet(t, 2, bcfg)
	co, c := startCoord(t, f, nil)
	v := f.victim(t, co, sub)
	f.gates[v].KillAfterLR(lrTotal / 2)

	ctx := context.Background()
	st, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	events := collectEvents(t, c, st.ID)
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job after kill: state %s, error %q", final.State, final.Error)
	}
	if !f.gates[v].Dead() {
		t.Fatal("kill gate never fired; the test exercised nothing")
	}
	if final.Backend != f.names[1-v] {
		t.Fatalf("job finished on %q, want the surviving backend %q", final.Backend, f.names[1-v])
	}
	text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, refText) {
		t.Fatal("solution after mid-job kill differs from an uninterrupted run")
	}
	if fmt.Sprintf("%v", events) != fmt.Sprintf("%v", refEvents) {
		t.Fatalf("event log after mid-job kill differs from an uninterrupted run:\ngot  %v\nwant %v", events, refEvents)
	}
	if refFinal.Telemetry != nil && final.Telemetry != nil &&
		refFinal.Telemetry.SolutionSHA256 != final.Telemetry.SolutionSHA256 {
		t.Fatal("solution digests differ across the re-dispatch")
	}

	// The coordinator counted the retry and the victim's breaker opened.
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if got := metricValue(t, body.String(), "tdmcoord_retries_total"); got < 1 {
		t.Fatalf("tdmcoord_retries_total = %v, want >= 1", got)
	}
}

// TestCoordinatorCorruptResponse pins the verification gate: a backend
// whose solution bytes fail their own digest is treated as lost (counted,
// retried elsewhere), and when every backend corrupts, the job ends in the
// typed exhaustion error rather than serving bad bytes.
func TestCoordinatorCorruptResponse(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	sub := serve.SubmitRequest{Instance: in}
	_, refText, _ := reference(t, bcfg, sub)

	f := startFleet(t, 2, bcfg)
	co, c := startCoord(t, f, nil)
	v := f.victim(t, co, sub)
	f.gates[v].CorruptSolutions(7)

	ctx := context.Background()
	st, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job with one corrupting backend: state %s, error %q", final.State, final.Error)
	}
	text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, refText) {
		t.Fatal("solution served after corruption retry differs from an uninterrupted run")
	}
	if co.metrics.corrupt.Load() < 1 {
		t.Fatal("corrupt response was not counted")
	}

	// Both backends corrupting: the typed error, never corrupt bytes.
	f.gates[1-v].CorruptSolutions(11)
	st2, err := c.Submit(ctx, serve.SubmitRequest{Instance: in, RipUp: 2})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != serve.StateFailed {
		t.Fatalf("job with all backends corrupting: state %s, want failed", final2.State)
	}
	j, _ := co.Lookup(st2.ID).(*cjob)
	if j == nil || !errors.Is(j.Err(), ErrAttemptsExhausted) {
		t.Fatalf("terminal error %v does not unwrap to ErrAttemptsExhausted", j.Err())
	}
	if !strings.Contains(final2.Error, "corrupt") {
		t.Fatalf("terminal error %q does not name the corruption", final2.Error)
	}
}

// TestCoordinatorPartitionFailover pins submit-time partition handling: a
// blackholed backend (connection accepted, no bytes ever move) times out
// the dispatch's unary budget and the job fails over, byte-identical.
func TestCoordinatorPartitionFailover(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	sub := serve.SubmitRequest{Instance: in}
	_, refText, _ := reference(t, bcfg, sub)

	f := startFleet(t, 2, bcfg)
	co, c := startCoord(t, f, func(cfg *Config) {
		cfg.StallTimeout = 1500 * time.Millisecond
		cfg.RequestTimeout = 3 * time.Second
	})
	v := f.victim(t, co, sub)
	f.gates[v].Partition(true)

	ctx := context.Background()
	st, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job across a partition: state %s, error %q", final.State, final.Error)
	}
	if final.Backend != f.names[1-v] {
		t.Fatalf("job finished on %q, want the reachable backend %q", final.Backend, f.names[1-v])
	}
	text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, refText) {
		t.Fatal("solution across a partition differs from an uninterrupted run")
	}
	f.gates[v].Partition(false)
}

// TestCoordinatorStallWatchdog pins the mid-stream watchdog: a backend that
// is partitioned while its job is mid-LR goes silent without dropping the
// connection, the coordinator declares it stalled after StallTimeout and
// re-dispatches, and the client's event stream continues seamlessly — then
// a cancel lands on the new backend and the job ends with a legal degraded
// incumbent.
func TestCoordinatorStallWatchdog(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	// Effectively endless LR: the job is guaranteed to still be running
	// when the partition lands and after the re-dispatch.
	sub := serve.SubmitRequest{Instance: in, Epsilon: 1e-12, MaxIter: 2_000_000}

	f := startFleet(t, 2, bcfg)
	co, c := startCoord(t, f, func(cfg *Config) {
		cfg.StallTimeout = 1500 * time.Millisecond
		cfg.RequestTimeout = 3 * time.Second
	})
	v := f.victim(t, co, sub)

	ctx := context.Background()
	st, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	// Stream from the coordinator; partition the victim at the first LR
	// event, then hold on until events resume (the re-dispatched backend
	// replaying past the prefix), and cancel.
	var seen []serve.Event
	partitioned, cancelled := false, false
	err = c.Stream(ctx, st.ID, func(e serve.Event) error {
		seen = append(seen, e)
		if e.Type == "lr" && !partitioned {
			partitioned = true
			f.gates[v].Partition(true)
		}
		// Progress after the retry was counted means the replacement
		// backend is live past the stall: release the job.
		if e.Type == "lr" && !cancelled && co.metrics.retries.Load() >= 1 {
			cancelled = true
			if err := c.Cancel(ctx, st.ID); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("state %s, error %q; want done with a degraded incumbent", final.State, final.Error)
	}
	if final.Response == nil || final.Response.Degraded == nil {
		t.Fatal("cancelled mid-LR job carries no Degraded marker")
	}
	if co.metrics.retries.Load() < 1 {
		t.Fatal("watchdog never re-dispatched")
	}
	for i, e := range seen {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d: stream not exactly-once across the stall", i, e.Seq)
		}
	}
	text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := problem.ParseSolution(bytes.NewReader(text), final.NumEdges)
	if err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatalf("degraded incumbent across a stall is not a legal solution: %v", err)
	}
	f.gates[v].Partition(false)
}

// TestCoordinatorDeltaPinning pins ECO routing: deltas run on the backend
// holding the base's warm session, a cache-answered base has no session to
// target (410), and an unknown base is a plain 404.
func TestCoordinatorDeltaPinning(t *testing.T) {
	in := testInstance(t)
	f := startFleet(t, 2, serve.Config{Workers: 2})
	_, c := startCoord(t, f, nil)
	ctx := context.Background()

	st, err := c.Submit(ctx, serve.SubmitRequest{Instance: in, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if base.State != serve.StateDone {
		t.Fatalf("retained base: state %s, error %q", base.State, base.Error)
	}

	dst, err := c.SubmitDelta(ctx, base.ID, serve.DeltaDoc{EdgeBias: []serve.EdgeBiasDoc{{Edge: 0, Delta: 2}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dfinal, err := c.Wait(ctx, dst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dfinal.State != serve.StateDone {
		t.Fatalf("delta: state %s, error %q", dfinal.State, dfinal.Error)
	}
	if dfinal.Backend != base.Backend {
		t.Fatalf("delta ran on %q, want pinned to the base's backend %q", dfinal.Backend, base.Backend)
	}
	if dfinal.BaseID != base.ID {
		t.Fatalf("delta BaseID %q, want %q", dfinal.BaseID, base.ID)
	}
	if _, err := c.SolutionBytes(ctx, dst.ID, serve.FormatText); err != nil {
		t.Fatal(err)
	}

	// A second identical retained submission repopulated nothing new; a
	// plain resubmission of the same content is a cache hit, and a delta
	// against that hit has no session anywhere.
	st2, err := c.Submit(ctx, serve.SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Backend != "cache" {
		t.Fatalf("resubmission backend %q, want \"cache\"", hit.Backend)
	}
	_, err = c.SubmitDelta(ctx, hit.ID, serve.DeltaDoc{}, 0)
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("delta on a cache hit: %v, want 410", err)
	}
	_, err = c.SubmitDelta(ctx, "c9999999", serve.DeltaDoc{}, 0)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("delta on unknown base: %v, want 404", err)
	}
}

// TestCoordinatorDrain pins the shutdown contract: after Shutdown begins,
// submissions bounce with 503 + Retry-After, health reports draining, and
// finished jobs stay readable.
func TestCoordinatorDrain(t *testing.T) {
	in := testInstance(t)
	f := startFleet(t, 1, serve.Config{Workers: 1})
	co, c := startCoord(t, f, nil)
	ctx := context.Background()

	st, err := c.Submit(ctx, serve.SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := co.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, serve.SubmitRequest{Instance: in, RipUp: 3})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v, want 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("503 while draining carries no Retry-After hint")
	}
	ok, err := c.Healthy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("healthz reports ok while draining")
	}
	if _, err := c.Status(ctx, st.ID); err != nil {
		t.Fatalf("finished job unreadable while draining: %v", err)
	}
}

// TestCoordinatorEventsResume pins SSE resume at the coordinator: a client
// reconnecting with Last-Event-ID sees exactly the tail, and a cursor past
// the end of a finished job closes immediately with nothing.
func TestCoordinatorEventsResume(t *testing.T) {
	in := testInstance(t)
	f := startFleet(t, 1, serve.Config{Workers: 1})
	_, c := startCoord(t, f, nil)
	ctx := context.Background()

	st, err := c.Submit(ctx, serve.SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	events := collectEvents(t, c, st.ID)
	if len(events) < 3 {
		t.Fatalf("job emitted only %d events; resume needs a tail to cut", len(events))
	}
	cut := len(events) / 2
	req, err := http.NewRequest("GET", c.BaseURL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.Itoa(cut-1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	ids := []string{}
	for _, line := range strings.Split(body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "id: "); ok {
			ids = append(ids, rest)
		}
	}
	if len(ids) != len(events)-cut {
		t.Fatalf("resume from %d replayed %d events, want %d", cut-1, len(ids), len(events)-cut)
	}
	if ids[0] != strconv.Itoa(cut) {
		t.Fatalf("resume replay starts at id %s, want %d", ids[0], cut)
	}
}

// TestBreakerTransitions walks the circuit breaker through its whole state
// machine and checks placement honors it.
func TestBreakerTransitions(t *testing.T) {
	b, err := newBackend("http://127.0.0.1:1", Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	const threshold = 3
	for i := 0; i < threshold-1; i++ {
		if opened := b.markFail(boom, threshold); opened {
			t.Fatalf("breaker opened after %d failures, threshold %d", i+1, threshold)
		}
		if !b.eligible() {
			t.Fatal("breaker ineligible before opening")
		}
	}
	if opened := b.markFail(boom, threshold); !opened {
		t.Fatal("breaker did not open at threshold")
	}
	if b.eligible() {
		t.Fatal("open breaker still eligible")
	}
	if b.opens.Load() != 1 {
		t.Fatalf("opens = %d, want 1", b.opens.Load())
	}
	if !b.probeSuccess() {
		t.Fatal("first successful probe did not half-open the breaker")
	}
	if b.breakerState() != breakerHalfOpen || !b.eligible() {
		t.Fatal("half-open breaker should be eligible for traffic")
	}
	if opened := b.markFail(boom, threshold); !opened {
		t.Fatal("half-open breaker did not reopen on one failure")
	}
	b.probeSuccess()
	b.probeSuccess()
	if b.breakerState() != breakerClosed {
		t.Fatalf("breaker %s after two probe successes, want closed", b.breakerState())
	}
	b.markOK()
	if b.consecutiveFails() != 0 {
		t.Fatal("markOK did not reset the failure count")
	}
}

// TestCoordinatorNoBackends pins the all-dead outcome: with every breaker
// open, a submission terminates with the typed ErrNoBackends, visibly
// failed, not hung.
func TestCoordinatorNoBackends(t *testing.T) {
	in := testInstance(t)
	f := startFleet(t, 2, serve.Config{Workers: 1})
	co, c := startCoord(t, f, nil)
	for _, b := range co.backends {
		for i := 0; i < co.cfg.BreakerThreshold; i++ {
			b.markFail(errors.New("induced"), co.cfg.BreakerThreshold)
		}
	}
	ctx := context.Background()
	st, err := c.Submit(ctx, serve.SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateFailed {
		t.Fatalf("state %s, want failed", final.State)
	}
	j, _ := co.Lookup(st.ID).(*cjob)
	if j == nil || !errors.Is(j.Err(), ErrNoBackends) {
		t.Fatalf("terminal error %v does not unwrap to ErrNoBackends", j.Err())
	}
}

// TestRendezvousPlacement pins the placement function itself: it is
// deterministic, it spreads distinct keys, and removing one backend remaps
// only the keys that backend owned.
func TestRendezvousPlacement(t *testing.T) {
	cfg := Config{
		Backends:      []string{"http://a:1", "http://b:1", "http://c:1"},
		ProbeInterval: time.Hour,
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown(context.Background())

	owner := map[string]string{}
	spread := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		b := co.place(key, nil)
		if b == nil {
			t.Fatal("no placement")
		}
		if again := co.place(key, nil); again != b {
			t.Fatalf("key %s: placement not deterministic", key)
		}
		owner[key] = b.name
		spread[b.name]++
	}
	for _, name := range []string{"a:1", "b:1", "c:1"} {
		if spread[name] == 0 {
			t.Fatalf("backend %s got no keys out of 300", name)
		}
	}
	// Open c's breaker: only c's keys move, everyone else stays put.
	var victim *backend
	for _, b := range co.backends {
		if b.name == "c:1" {
			victim = b
		}
	}
	for i := 0; i < 3; i++ {
		victim.markFail(errors.New("down"), 3)
	}
	for key, prev := range owner {
		b := co.place(key, nil)
		if prev != "c:1" && b.name != prev {
			t.Fatalf("key %s moved from %s to %s when an unrelated backend left", key, prev, b.name)
		}
		if prev == "c:1" && b.name == "c:1" {
			t.Fatalf("key %s still placed on the open backend", key)
		}
	}
}
