package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmroute"
)

// TestJobIDWidensBeyondPadding is the regression test for the fixed-width id
// buffer that truncated ids above 9,999,999 to their low seven digits,
// colliding with earlier jobs.
func TestJobIDWidensBeyondPadding(t *testing.T) {
	if got := jobID("j", 1); got != "j0000001" {
		t.Errorf("jobID(1) = %q, want j0000001", got)
	}
	if got := jobID("j", 9_999_999); got != "j9999999" {
		t.Errorf("jobID(9999999) = %q, want j9999999", got)
	}
	if got := jobID("j", 10_000_000); got != "j10000000" {
		t.Errorf("jobID(10000000) = %q, want j10000000", got)
	}
	// The old truncation mapped these pairs to the same id.
	collisions := [][2]int{{10_000_000, 0}, {10_000_001, 1}, {12_345_678, 2_345_678}}
	for _, c := range collisions {
		if a, b := jobID("j", c[0]), jobID("j", c[1]); a == b {
			t.Errorf("jobID(%d) and jobID(%d) collide on %q", c[0], c[1], a)
		}
	}
	// Lexical order still matches submission order in the padded range.
	if jobID("j", 12) >= jobID("j", 345) {
		t.Error("padded ids lost lexical ordering")
	}
}

// TestRunJobObservesDrain forces the shutdown race the drain check in runJob
// closes: a worker dequeues a job, and before it can begin(), a drain
// completes both sweeps (the queue is already empty, and the job is not yet
// running so the cancel sweep skips it). Without the fix the job runs its
// full iteration budget un-cancelled; with it, the solve is cancelled
// immediately and finishes fast.
func TestRunJobObservesDrain(t *testing.T) {
	in := testInstance(t)
	s := New(Config{Workers: -1, QueueDepth: 2})
	req := tdmroute.Request{Instance: in, Options: tdmroute.Options{
		TDM: tdmroute.TDMOptions{Epsilon: 1e-12, MaxIter: 2_000_000},
	}}
	j, err := s.submit(req, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The "worker" dequeues the job...
	jj := <-s.queue
	if jj != j {
		t.Fatal("dequeued a different job")
	}
	// ...and a drain runs to completion before the worker proceeds.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != StateQueued {
		t.Fatalf("job state after drain = %s, want still queued (the race window)", st)
	}
	// The worker proceeds. An un-cancelled 2M-iteration solve would hang
	// the test; the drain check degrades it immediately.
	s.runJob(j)
	st := j.State()
	if !st.Terminal() {
		t.Fatalf("job state after runJob = %s, want terminal", st)
	}
	if st == StateDone {
		if j.resp == nil || j.resp.Degraded == nil {
			t.Fatal("drained job finished done without Degraded")
		}
	} else if st != StateCanceled {
		t.Fatalf("job state = %s, want done or canceled", st)
	}
}

// TestFinishJobKeepsIncumbent is the regression test for the hard-error path
// that discarded a ModeIterative response carrying a legal best-so-far
// incumbent: the solution must survive, reported as degraded with the error
// on the job.
func TestFinishJobKeepsIncumbent(t *testing.T) {
	in := testInstance(t)
	resp, err := tdmroute.Run(context.Background(),
		tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: -1})
	j, err := s.submit(tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-s.queue
	if !j.begin(func() {}) {
		t.Fatal("begin refused a queued job")
	}
	boom := errors.New("injected: round 2 reroute failed")
	s.finishJob(j, resp, boom)

	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state = %s, want done (the incumbent is legal)", st.State)
	}
	if st.Response == nil || st.Response.Solution == nil {
		t.Fatal("incumbent solution was discarded with the error")
	}
	if st.Response.Degraded == nil {
		t.Fatal("kept incumbent does not report Degraded")
	}
	if !errors.Is(st.Response.Degraded.Cause, boom) {
		t.Fatalf("Degraded.Cause = %v, want the injected error", st.Response.Degraded.Cause)
	}
	if !strings.Contains(st.Error, "injected") {
		t.Fatalf("job error %q does not carry the failure", st.Error)
	}
	if degraded := s.outcomes[slices.Index(outcomeNames[:], "degraded")].Load(); degraded != 1 {
		t.Fatalf("degraded outcome count = %d, want 1", degraded)
	}
}

// eventsGet issues a raw SSE request with a Last-Event-ID header and returns
// the full body; ctx bounds the read so a hanging stream fails the test
// instead of wedging it.
func eventsGet(t *testing.T, ctx context.Context, base, id, lastEventID string) (int, string) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading event stream: %v (a cursor beyond the log must not hang the subscriber)", err)
	}
	return resp.StatusCode, string(body)
}

// TestEventsResume covers SSE reconnection: resuming after a seen event
// replays only the rest, and a bogus Last-Event-ID beyond the log — the case
// that used to park the subscriber forever on an unsatisfiable completion
// condition — terminates cleanly with nothing to replay.
func TestEventsResume(t *testing.T) {
	in := testInstance(t)
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()

	// Full replay: first event is seq 0.
	code, full := eventsGet(t, rctx, c.BaseURL, st.ID, "")
	if code != http.StatusOK || !strings.Contains(full, "id: 0\n") {
		t.Fatalf("full replay: code %d, body %q", code, full)
	}
	// Resume after event 0: replay starts at seq 1.
	_, tail := eventsGet(t, rctx, c.BaseURL, st.ID, "0")
	if strings.Contains(tail, "id: 0\n") || !strings.Contains(tail, "id: 1\n") {
		t.Fatalf("resume after 0 replayed the wrong events: %q", tail)
	}
	// A cursor far beyond the log: the stream must end, replaying nothing.
	_, empty := eventsGet(t, rctx, c.BaseURL, st.ID, "1000000")
	if strings.Contains(empty, "id:") {
		t.Fatalf("bogus cursor replayed events: %q", empty)
	}
	// A malformed cursor is a client error, not a hang.
	code, _ = eventsGet(t, rctx, c.BaseURL, st.ID, "not-a-number")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID: code %d, want 400", code)
	}
}

// blockingWriter stalls every Write until released, modeling a slow metrics
// scraper on the far end of an http.ResponseWriter.
type blockingWriter struct {
	header  http.Header
	entered sync.Once
	in      chan struct{} // closed when the first Write has begun
	release chan struct{} // Writes return once this is closed
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.entered.Do(func() { close(w.in) })
	<-w.release
	return len(p), nil
}

// TestMetricsWriteReleasesLockBeforeSocket is the regression test for the
// exposition writer that held the metrics mutex across fmt.Fprintf calls
// aimed at the HTTP response socket: one slow scraper would stall every
// worker recording a finished job. The exposition renders into a buffer
// under the locks and touches the socket only after releasing them, so
// recording a finished job must complete while the scraper is still
// stalled mid-Write.
func TestMetricsWriteReleasesLockBeforeSocket(t *testing.T) {
	s := New(Config{Workers: -1})
	bw := &blockingWriter{header: http.Header{}, in: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(bw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		close(done)
	}()
	<-bw.in
	observed := make(chan struct{})
	go func() {
		s.Observe(StateDone, false)
		s.metrics.observe(&tdmroute.Response{})
		s.Lookup("j0000001")
		close(observed)
	}()
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("recording a finished job blocked behind a stalled metrics scraper: a lock is held across the socket write")
	}
	close(bw.release)
	<-done
}

// TestFinishHookRunsFirst: a job's finish hook (a delta's warm-session
// release) runs before the job turns terminal, so a client that has seen
// a delta finish can submit the next one at once. When the hook ran after,
// TestServerDeltaEndToEnd's second delta met "409 another delta is
// running" whenever the finishing worker was descheduled between the two.
func TestFinishHookRunsFirst(t *testing.T) {
	j := &job{}
	j.state = StateRunning
	terminalInHook := false
	j.onFinish = func() { terminalInHook = j.State().Terminal() }
	if !j.finish(StateDone, nil, nil, nil) {
		t.Fatal("finish refused a running job")
	}
	if terminalInHook {
		t.Fatal("the finish hook ran after the job turned terminal")
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("state %s after finish, want done", st)
	}
}
