package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmroute"
)

// longPoll issues GET /v1/jobs/{id}?wait=1 and decodes the answer.
func longPoll(t *testing.T, ctx context.Context, base, id string) *JobStatus {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"?wait=1", nil)
	if err != nil {
		t.Error(err)
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("long-poll %s: %v", id, err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("long-poll %s: status %d", id, resp.StatusCode)
		return nil
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Errorf("long-poll %s: %v", id, err)
		return nil
	}
	return &st
}

// TestLongPollTerminalStatus: ?wait=1 answers with the terminal status,
// the same one a plain GET gives afterwards, both for a job that finishes
// on its own and for one cancelled mid-LR while the long-poll is open.
func TestLongPollTerminalStatus(t *testing.T) {
	in := testInstance(t)
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	final := longPoll(t, ctx, c.BaseURL, st.ID)
	if final == nil {
		t.FailNow()
	}
	if final.State != StateDone || final.Response == nil || final.Telemetry == nil {
		t.Fatalf("long-poll answered state %s, response %v, telemetry %v; want the done status",
			final.State, final.Response != nil, final.Telemetry != nil)
	}
	again, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, final), mustJSON(t, again); got != want {
		t.Fatalf("long-poll status differs from the plain status:\n%s\n%s", got, want)
	}

	slow, err := c.Submit(ctx, slowSubmit(in))
	if err != nil {
		t.Fatal(err)
	}
	awaitLR(t, c, slow.ID)
	polled := make(chan *JobStatus, 1)
	go func() { polled <- longPoll(t, ctx, c.BaseURL, slow.ID) }()
	select {
	case st := <-polled:
		t.Fatalf("long-poll answered while the job was running: %+v", st)
	case <-time.After(100 * time.Millisecond):
	}
	if err := c.Cancel(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-polled:
		if st == nil {
			t.FailNow()
		}
		if st.State != StateDone || st.Response == nil || st.Response.Degraded == nil {
			t.Fatalf("long-poll after cancel: state %s; want done with a degraded incumbent", st.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("long-poll did not answer after the job was cancelled")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// stubJob is a job whose log the test drives by hand.
type stubJob struct{ JobLog }

func (j *stubJob) Status() *JobStatus {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	st := &JobStatus{}
	j.StatusLocked(st)
	return st
}

func (j *stubJob) Solution() (*tdmroute.Solution, []byte, *tdmroute.Degraded) { return nil, nil, nil }
func (j *stubJob) Cancel() State                                              { return j.State() }

// stubExec refuses every submission; tests register stub jobs directly.
type stubExec struct{}

func (stubExec) Submit(SubmitRequest) (Job, error) { return nil, errors.New("stub") }
func (stubExec) Delta(Job, DeltaDoc, time.Duration) (Job, error) {
	return nil, errors.New("stub")
}
func (stubExec) WriteMetrics(*bytes.Buffer) {}

// TestLongPollCap: a job that never finishes is answered with its current
// status once the wait cap has passed. The job burns no processor time, so
// the test only waits.
func TestLongPollCap(t *testing.T) {
	if testing.Short() {
		t.Skip("waits the full long-poll cap")
	}
	t.Parallel()
	core := NewCore(stubExec{}, "stub", "s", 0, 0, nil)
	j := &stubJob{}
	core.Register(j)
	j.Append(Event{Type: "state", State: StateRunning})
	ts := httptest.NewServer(core.Handler())
	defer ts.Close()

	t0 := time.Now()
	st := longPoll(t, context.Background(), ts.URL, j.ID())
	waited := time.Since(t0)
	if st == nil {
		t.FailNow()
	}
	if st.State != StateRunning {
		t.Fatalf("capped long-poll answered state %s, want running", st.State)
	}
	if waited < waitCap || waited > waitCap+5*time.Second {
		t.Fatalf("long-poll answered after %v, want about the cap %v", waited, waitCap)
	}
}

// TestWaitFallsBackWhenWaitIgnored runs Wait against a server that ignores
// ?wait=1 and answers a running status at once, as a server without the
// long-poll does: Wait must poll with backoff until the job is terminal,
// never busily and without opening the event stream.
func TestWaitFallsBackWhenWaitIgnored(t *testing.T) {
	var streams atomic32
	var mu sync.Mutex
	var arrivals []time.Time
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/x", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		n := len(arrivals)
		mu.Unlock()
		st := JobStatus{ID: "x", State: StateRunning}
		if n >= 4 {
			st.State = StateDone
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /v1/jobs/x/events", func(w http.ResponseWriter, r *http.Request) {
		streams.inc()
		http.Error(w, "no stream", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	st, err := c.Wait(context.Background(), "x")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 4 || streams.load() != 0 {
		t.Fatalf("Wait made %d status requests and opened %d streams; want 4 and 0", len(arrivals), streams.load())
	}
	// The least jittered backoff is waitPollBase/2.
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i].Sub(arrivals[i-1]); gap < waitPollBase/2 {
			t.Fatalf("request %d followed the one before by %v, inside the least backoff %v", i, gap, waitPollBase/2)
		}
	}
}

// TestWaitReasksHeldLongPoll: a long-poll the server held to its cap and
// answered with a running status is followed by another long-poll, until
// the answer is terminal.
func TestWaitReasksHeldLongPoll(t *testing.T) {
	var polls atomic32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/x", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") != "1" {
			t.Errorf("status request without wait=1: %s", r.URL)
		}
		st := JobStatus{ID: "x", State: StateDone}
		if polls.inc() == 1 {
			time.Sleep(waitHeld + 50*time.Millisecond) // the cap, shortened
			st.State = StateRunning
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	st, err := c.Wait(context.Background(), "x")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != StateDone || polls.load() != 2 {
		t.Fatalf("state %s after %d long-polls, want done after 2", st.State, polls.load())
	}
}

// TestWaitLongPollOnly: against the real server, Wait is answered by the
// long-poll alone; the event stream is never opened.
func TestWaitLongPollOnly(t *testing.T) {
	in := testInstance(t)
	s, _ := startServer(t, Config{Workers: 1})
	var streams atomic32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		streams.inc()
		s.Handler().ServeHTTP(w, r)
	})
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	st, err := c.Submit(ctx, SubmitRequest{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if n := streams.load(); n != 0 {
		t.Fatalf("Wait opened %d event streams; the long-poll should have answered", n)
	}
}

// sseFrames renders events exactly as the events endpoint frames them.
func sseFrames(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		data, _ := json.Marshal(e)
		fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	}
	return b.String()
}

// TestEventsLiveExactlyOnce reads a job's event stream raw while the job
// runs: the body is every recorded event exactly once, in order, under its
// sequence id — the same bytes a replay of the finished job gives.
func TestEventsLiveExactlyOnce(t *testing.T) {
	in := testInstance(t)
	s, c := startServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, SubmitRequest{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	code, live := eventsGet(t, ctx, c.BaseURL, st.ID, "")
	if code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	l := s.Lookup(st.ID).jobLog()
	l.Mutex.Lock()
	want := sseFrames(l.events)
	n := len(l.events)
	l.Mutex.Unlock()
	if n < 3 {
		t.Fatalf("job recorded only %d events", n)
	}
	if live != want {
		t.Fatalf("live stream differs from the job's log:\ngot  %q\nwant %q", live, want)
	}
	if _, replay := eventsGet(t, ctx, c.BaseURL, st.ID, ""); replay != want {
		t.Fatalf("replay differs from the job's log:\ngot  %q\nwant %q", replay, want)
	}
}
