package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdmroute"
)

// Job is one job as the shared handlers see it. The solve job of Server and
// the proxied job of coord.Coordinator both implement it by embedding
// JobLog.
type Job interface {
	jobLog() *JobLog
	// Status snapshots the job for GET /v1/jobs/{id} and the 202 reply.
	Status() *JobStatus
	// Solution returns the finished job's solution, or a nil one while it
	// has none. text, when non-nil, is the canonical text serialization
	// already in hand, served verbatim; degraded is set for a best-so-far
	// incumbent.
	Solution() (sol *tdmroute.Solution, text []byte, degraded *tdmroute.Degraded)
	// Cancel implements DELETE and returns the state after the call.
	Cancel() State
}

// Executor is how a tier runs the jobs its Core accepts: Server solves
// them in a local worker pool, coord.Coordinator proxies them to backends.
// A refusal is an *APIError, answered with its status and, when it carries
// one, its Retry-After.
type Executor interface {
	// Submit starts a validated submission.
	Submit(sub SubmitRequest) (Job, error)
	// Delta starts an ECO re-solve against base, a finished job.
	Delta(base Job, doc DeltaDoc, deadline time.Duration) (Job, error)
	// WriteMetrics renders the tier's /metrics exposition into memory.
	WriteMetrics(buf *bytes.Buffer)
}

// outcomeNames are the outcomes the jobs_total counters count, in
// exposition order: the terminal states, with done split by whether the
// solution is a degraded incumbent.
var outcomeNames = [...]string{"done", "degraded", "canceled", "failed", "rejected"}

// Core is the serving core tdmroutd and tdmcoord share: the job table, the
// HTTP API (every handler is here; the tier supplies only its Executor),
// the admission and outcome counters, and the drain. Each tier embeds it.
type Core struct {
	exec       Executor
	tier       string // metric-name prefix
	idPrefix   string
	retryAfter time.Duration
	maxBody    int64
	logf       func(format string, args ...any)
	mux        *http.ServeMux

	// stopc closes when the drain begins: long-lived goroutines stop.
	stopc    chan struct{}
	stopOnce sync.Once
	//lint:ignore rawgo serving-tier lifecycle accounting, not solver parallelism: Drain waits for workers, dispatches and probers
	wg       sync.WaitGroup
	draining atomic.Bool

	mu     sync.Mutex
	jobs   map[string]Job
	nextID int

	accepted       atomic.Int64
	submitRejected atomic.Int64
	outcomes       [len(outcomeNames)]atomic.Int64
}

// NewCore builds the core a tier embeds. tier prefixes the metric names,
// idPrefix the job ids; retryAfter (zero selects 1s) is the Retry-After
// hint on 503 refusals, maxBody (zero selects 64 MiB) caps request bodies,
// and logf, when non-nil, receives one line per job transition.
func NewCore(exec Executor, tier, idPrefix string, retryAfter time.Duration, maxBody int64, logf func(format string, args ...any)) *Core {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	c := &Core{
		exec:       exec,
		tier:       tier,
		idPrefix:   idPrefix,
		retryAfter: retryAfter,
		maxBody:    maxBody,
		logf:       logf,
		mux:        http.NewServeMux(),
		//lint:ignore rawgo shutdown signal channel, not solver parallelism: closing it stops workers and probers
		stopc: make(chan struct{}),
		jobs:  map[string]Job{},
	}
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("POST /v1/jobs/{id}/delta", c.handleDelta)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	c.mux.HandleFunc("GET /v1/jobs/{id}/solution", c.handleSolution)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	return c
}

// Handler returns the HTTP handler serving the API.
func (c *Core) Handler() http.Handler { return c.mux }

// HandleFunc adds a tier-only route.
func (c *Core) HandleFunc(pattern string, h http.HandlerFunc) { c.mux.HandleFunc(pattern, h) }

// Stopping returns a channel that is closed when the drain begins.
func (c *Core) Stopping() <-chan struct{} { return c.stopc }

// Logf logs one line through the configured logger, if any.
func (c *Core) Logf(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// Go runs f on a goroutine that Drain waits for.
func (c *Core) Go(f func()) {
	c.wg.Add(1)
	//lint:ignore rawgo serving-tier goroutine, not solver parallelism: a worker, dispatch or prober that Drain waits for
	go func() {
		defer c.wg.Done()
		f()
	}()
}

// claimLocked gives a new job its id and its initial queued state. Ids are
// zero-padded to seven digits so lexical and submission order agree in
// listings; ids beyond that simply grow a digit. c.mu held.
func (c *Core) claimLocked(j Job) {
	c.nextID++
	l := j.jobLog()
	l.id = jobID(c.idPrefix, c.nextID)
	l.state = StateQueued
}

func jobID(prefix string, n int) string {
	// (A fixed-width buffer here once truncated ids above 9,999,999 to their
	// low seven digits, colliding with earlier jobs.)
	return fmt.Sprintf("%s%07d", prefix, n)
}

// registerLocked makes a claimed job visible and counts it accepted. c.mu
// held.
func (c *Core) registerLocked(j Job) {
	c.jobs[j.jobLog().id] = j
	c.accepted.Add(1)
}

// Register claims an id for a new job, makes it visible to the handlers
// and counts it accepted.
func (c *Core) Register(j Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.claimLocked(j)
	c.registerLocked(j)
}

// Lookup finds a job by id, or returns nil.
func (c *Core) Lookup(id string) Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// Observe counts one finished job under its outcome.
func (c *Core) Observe(state State, degraded bool) {
	name := string(state)
	if state == StateDone && degraded {
		name = "degraded"
	}
	for i, n := range outcomeNames {
		if n == name {
			c.outcomes[i].Add(1)
		}
	}
}

// Summary renders the admission and outcome counters for the drain log.
func (c *Core) Summary() string {
	s := fmt.Sprintf("accepted %d", c.accepted.Load())
	for i, n := range outcomeNames {
		s += fmt.Sprintf(", %s %d", n, c.outcomes[i].Load())
	}
	return s
}

// WriteHead renders the exposition's opening lines: the title, up and
// draining.
func (c *Core) WriteHead(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "# %s metrics\n", c.tier)
	fmt.Fprintf(buf, "%s_up 1\n", c.tier)
	draining := 0
	if c.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(buf, "%s_draining %d\n", c.tier, draining)
}

// WriteAdmissions renders the accepted and rejected submission counters.
func (c *Core) WriteAdmissions(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "%s_jobs_accepted_total %d\n", c.tier, c.accepted.Load())
	fmt.Fprintf(buf, "%s_submit_rejected_total %d\n", c.tier, c.submitRejected.Load())
}

// WriteOutcomes renders one jobs_total counter per outcome.
func (c *Core) WriteOutcomes(buf *bytes.Buffer) {
	for i, n := range outcomeNames {
		fmt.Fprintf(buf, "%s_jobs_total{outcome=%q} %d\n", c.tier, n, c.outcomes[i].Load())
	}
}

// Unavailable is the 503 refusal, with Retry-After, for a tier that cannot
// take a job now.
func (c *Core) Unavailable(reason string) *APIError {
	return &APIError{Status: http.StatusServiceUnavailable, Message: reason, RetryAfter: c.retryAfter}
}

// Errorf builds a refusal with the given status and message.
func Errorf(status int, format string, args ...any) *APIError {
	return &APIError{Status: status, Message: fmt.Sprintf(format, args...)}
}

// Drain stops the core: from here on every submission is refused with 503
// and Retry-After, and the Stopping channel is closed. sweep then winds down
// the tier's jobs, given in id order. Drain returns once every goroutine
// started with Go has finished, or with ctx's error if that takes longer.
func (c *Core) Drain(ctx context.Context, sweep func(jobs []Job)) error {
	// The flag flips under c.mu, which a tier's admission may hold across
	// its own draining check and enqueue.
	c.mu.Lock()
	c.draining.Store(true)
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	jobs := make([]Job, len(ids))
	for i, id := range ids {
		jobs[i] = c.jobs[id]
	}
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stopc) })
	sweep(jobs)

	//lint:ignore rawgo shutdown completion signal, not solver parallelism: bridges WaitGroup completion to the caller's context
	done := make(chan struct{})
	//lint:ignore rawgo shutdown waiter, not solver parallelism: single goroutine closing the completion channel
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writeJSON sends v as a JSON body with the status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError sends err as a JSON error body: an *APIError with its status
// (and Retry-After when it carries one), anything else as a 500.
func writeError(w http.ResponseWriter, err error) {
	var ae *APIError
	if !errors.As(err, &ae) {
		ae = &APIError{Status: http.StatusInternalServerError, Message: err.Error()}
	}
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(ae.RetryAfter.Round(time.Second)/time.Second)))
	}
	writeJSON(w, ae.Status, map[string]string{"error": ae.Message})
}

// httpError writes a JSON error body alongside the status code.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeError(w, Errorf(code, format, args...))
}

// refuseDraining answers a submission that arrives during the drain.
func (c *Core) refuseDraining(w http.ResponseWriter) bool {
	if !c.draining.Load() {
		return false
	}
	c.submitRejected.Add(1)
	writeError(w, c.Unavailable("server is draining"))
	return true
}

// accept answers a started job with 202, its Location and its status.
func accept(w http.ResponseWriter, j Job, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	st := j.Status()
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleSubmit accepts an instance — contest text (text/plain, the
// default), JSON (application/json), binary (application/octet-stream), or
// a multipart/form-data body whose "instance" part is any of those and
// whose "routing" part fixes the topology for assign mode — configured by
// the query parameters (see ParseSubmit), and hands it to the executor.
func (c *Core) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, c.maxBody)
	sub, err := ParseSubmit(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := c.exec.Submit(sub)
	accept(w, j, err)
}

// handleDelta implements POST /v1/jobs/{id}/delta: an ECO re-solve of a
// finished job's retained warm session. Status codes spell out why a delta
// cannot run: 404 for an unknown base job, 409 while the base is
// unfinished; the executor adds 409 while another delta holds the session
// and 410 when the session is gone.
func (c *Core) handleDelta(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w) {
		return
	}
	base := c.jobFor(w, r)
	if base == nil {
		return
	}
	if st := base.jobLog().State(); !st.Terminal() {
		httpError(w, http.StatusConflict, "base job %s is %s; deltas target finished jobs", base.jobLog().id, st)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, c.maxBody)
	doc, deadline, err := parseDelta(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := c.exec.Delta(base, doc, deadline)
	accept(w, j, err)
}

// parseDelta decodes a delta body and its ?deadline=.
func parseDelta(r *http.Request) (DeltaDoc, time.Duration, error) {
	var doc DeltaDoc
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		return doc, 0, fmt.Errorf("bad delta body: %v", err)
	}
	var deadline time.Duration
	if v := r.URL.Query().Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return doc, 0, fmt.Errorf("bad deadline %q", v)
		}
		deadline = d
	}
	return doc, deadline, nil
}

func (c *Core) jobFor(w http.ResponseWriter, r *http.Request) Job {
	j := c.Lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

// waitCap bounds a long-poll: GET /v1/jobs/{id}?wait=1 answers with the
// current status once the job is terminal or this long after the request,
// whichever comes first.
const waitCap = 15 * time.Second

// handleStatus answers GET /v1/jobs/{id}. With ?wait=1 it is a long-poll:
// the answer waits until the job is terminal, at most waitCap, and a
// client that hangs up ends the wait.
func (c *Core) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := c.jobFor(w, r)
	if j == nil {
		return
	}
	if v := r.URL.Query().Get("wait"); v == "1" || v == "true" {
		t := time.NewTimer(waitCap)
		defer t.Stop()
		select {
		case <-j.jobLog().doneChan():
		case <-t.C:
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (c *Core) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j := c.jobFor(w, r); j != nil {
		state := j.Cancel()
		writeJSON(w, http.StatusOK, map[string]any{"id": j.jobLog().id, "state": state})
	}
}

// handleEvents streams the job's progress as Server-Sent Events: recorded
// events from the resume cursor on are replayed, then live events follow
// until the job is terminal (the final event has type "done") or the client
// goes away. A reconnecting client resumes after the Last-Event-ID it saw;
// a cursor beyond the log is clamped to its end (the stream follows the
// live tail) instead of hanging the subscriber forever. Behind the
// coordinator the log is already re-sequenced across re-dispatches, so
// backend loss is invisible here.
func (c *Core) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := c.jobFor(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	next := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		next = id + 1
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, from, notify, terminal := j.jobLog().since(next)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
		}
		next = from + len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleSolution serves the finished job's solution in the format named by
// ?format= (text, the default; json; binary). Degraded solutions are legal
// best-so-far incumbents and carry an X-Tdmroute-Degraded header naming the
// interrupted stage.
func (c *Core) handleSolution(w http.ResponseWriter, r *http.Request) {
	j := c.jobFor(w, r)
	if j == nil {
		return
	}
	id := j.jobLog().id
	state := j.jobLog().State()
	if !state.Terminal() {
		httpError(w, http.StatusConflict, "job %s is %s; no solution yet", id, state)
		return
	}
	sol, text, degraded := j.Solution()
	if sol == nil {
		httpError(w, http.StatusConflict, "job %s is %s and produced no solution", id, state)
		return
	}
	if degraded != nil {
		w.Header().Set("X-Tdmroute-Degraded", string(degraded.Stage))
	}
	writeSolution(w, r.URL.Query().Get("format"), sol, text)
}

func (c *Core) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The tier renders into memory; the one socket write below holds no
	// lock, so a slow scraper never stalls the jobs (mutexhold).
	var buf bytes.Buffer
	c.exec.WriteMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

func (c *Core) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if c.draining.Load() {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
