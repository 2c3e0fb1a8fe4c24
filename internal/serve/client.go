package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tdmroute"
	"tdmroute/internal/problem"
)

// Format selects the wire encoding of instances and solutions.
type Format int

const (
	// FormatText is the contest text format.
	FormatText Format = iota
	// FormatJSON is the JSON schema.
	FormatJSON
	// FormatBinary is the length-prefixed binary format.
	FormatBinary
)

func (f Format) contentType() string {
	switch f {
	case FormatJSON:
		return "application/json"
	case FormatBinary:
		return "application/octet-stream"
	}
	return "text/plain"
}

func (f Format) query() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatBinary:
		return "binary"
	}
	return "text"
}

// SubmitRequest describes one job submission.
type SubmitRequest struct {
	// Instance is the problem instance (required).
	Instance *tdmroute.Instance
	// Mode selects the pipeline (single, iterative, assign).
	Mode tdmroute.Mode
	// Rounds is the feedback-round budget for ModeIterative.
	Rounds int
	// Routing fixes the topology for ModeAssignOnly.
	Routing tdmroute.Routing
	// Deadline is the per-job wall budget (0 = server default).
	Deadline time.Duration
	// Name labels the job's instance.
	Name string
	// Format selects the upload encoding.
	Format Format
	// Epsilon/MaxIter/RipUp/Workers/Pow2 override the server's solver
	// defaults when non-zero.
	Epsilon float64
	MaxIter int
	RipUp   int
	Workers int
	Pow2    bool
	// Partitions overrides the partitioned-routing region count when
	// non-zero (1 = off).
	Partitions int
	// Retain keeps the solved job's warm session on the server so later
	// SubmitDelta calls can re-solve it incrementally. Not supported for
	// ModeAssignOnly.
	Retain bool
}

// Client is the typed client of a tdmroutd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes an error response body.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &APIError{Status: resp.StatusCode, Message: e.Error, RetryAfter: retryAfter(resp)}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body)), RetryAfter: retryAfter(resp)}
}

// retryAfterCap bounds the server-suggested backoff: a bogus, hostile, or
// clock-skewed Retry-After must not park a well-behaved client for hours.
const retryAfterCap = 30 * time.Second

func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(v); err == nil {
		// The HTTP-date form: the hint is the distance from now, never
		// negative (a date in the past means "retry immediately").
		d = time.Until(t)
		if d <= 0 {
			return 0
		}
	} else {
		return 0
	}
	if d > retryAfterCap {
		d = retryAfterCap
	}
	return d
}

// APIError is a non-2xx server response.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint on 503 rejections.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: server returned %d: %s", e.Status, e.Message)
}

// Submit uploads the instance and enqueues a solve.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*JobStatus, error) {
	if req.Instance == nil {
		return nil, fmt.Errorf("serve: Submit: nil Instance")
	}
	var instance bytes.Buffer
	var err error
	switch req.Format {
	case FormatJSON:
		err = problem.WriteInstanceJSON(&instance, req.Instance)
	case FormatBinary:
		err = problem.WriteInstanceBinary(&instance, req.Instance)
	default:
		err = problem.WriteInstance(&instance, req.Instance)
	}
	if err != nil {
		return nil, err
	}
	return c.SubmitEncoded(ctx, req, instance.Bytes())
}

// SubmitEncoded is Submit for an instance already encoded in req.Format:
// instance is uploaded as it is, and req.Instance is not read. The
// coordinator forwards the text it rendered for its content key this way.
func (c *Client) SubmitEncoded(ctx context.Context, req SubmitRequest, instance []byte) (*JobStatus, error) {
	q := url.Values{}
	q.Set("mode", req.Mode.String())
	if req.Name != "" {
		q.Set("name", req.Name)
	}
	if req.Rounds > 0 {
		q.Set("rounds", strconv.Itoa(req.Rounds))
	}
	if req.Deadline > 0 {
		q.Set("deadline", req.Deadline.String())
	}
	if req.Epsilon != 0 {
		q.Set("epsilon", strconv.FormatFloat(req.Epsilon, 'g', -1, 64))
	}
	if req.MaxIter != 0 {
		q.Set("maxiter", strconv.Itoa(req.MaxIter))
	}
	if req.RipUp != 0 {
		q.Set("ripup", strconv.Itoa(req.RipUp))
	}
	if req.Workers != 0 {
		q.Set("workers", strconv.Itoa(req.Workers))
	}
	if req.Pow2 {
		q.Set("pow2", "1")
	}
	if req.Partitions != 0 {
		q.Set("partitions", strconv.Itoa(req.Partitions))
	}
	if req.Retain {
		q.Set("retain", "1")
	}

	var body io.Reader = bytes.NewReader(instance)
	contentType := req.Format.contentType()
	if req.Routing != nil {
		var mbody bytes.Buffer
		mw := multipart.NewWriter(&mbody)
		hdr := textproto.MIMEHeader{}
		hdr.Set("Content-Disposition", `form-data; name="instance"`)
		hdr.Set("Content-Type", req.Format.contentType())
		part, err := mw.CreatePart(hdr)
		if err != nil {
			return nil, err
		}
		if _, err := part.Write(instance); err != nil {
			return nil, err
		}
		rpart, err := mw.CreateFormField("routing")
		if err != nil {
			return nil, err
		}
		if err := problem.WriteRouting(rpart, req.Routing); err != nil {
			return nil, err
		}
		if err := mw.Close(); err != nil {
			return nil, err
		}
		contentType = mw.FormDataContentType()
		body = &mbody
	}

	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/jobs?"+q.Encode(), body)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", contentType)
	resp, err := c.http().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SubmitDelta queues an incremental re-solve of baseID's warm session (the
// base job must have been submitted with Retain and have finished). The
// returned job behaves like any other: poll or stream it, then fetch its
// solution — which is for the patched instance. Conflicting deltas (the
// session is busy) and missing sessions surface as 409 and 410 APIErrors.
func (c *Client) SubmitDelta(ctx context.Context, baseID string, d DeltaDoc, deadline time.Duration) (*JobStatus, error) {
	q := url.Values{}
	if deadline > 0 {
		q.Set("deadline", deadline.String())
	}
	body, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	u := c.BaseURL + "/v1/jobs/" + baseID + "/delta"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Cancel requests cancellation: queued jobs become canceled, running jobs
// finish with their best-so-far incumbents.
func (c *Client) Cancel(ctx context.Context, id string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Streaming and polling backoff. Reconnect attempts that deliver at least
// one new event reset the consecutive-failure budget: only a peer that
// repeatedly yields nothing is declared gone.
const (
	streamMaxAttempts = 5
	streamBackoffBase = 50 * time.Millisecond
	streamBackoffCap  = time.Second
	waitPollBase      = 50 * time.Millisecond
	waitPollCap       = 2 * time.Second
	waitMaxPollFails  = 5
	// waitHeld is how long a server must have held a non-terminal
	// long-poll answer for Wait to ask again without backing off; it is
	// well below the server's waitCap and well above a plain Status
	// round trip.
	waitHeld = time.Second
)

// Jitter spreads d uniformly over [d/2, 3d/2) so a fleet of reconnecting
// clients, or of probing coordinators, does not thunder back in lockstep.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// transientError marks a stream failure worth reconnecting from: a dropped
// connection, a scanner error, or a stream that ended before the job did.
// Non-2xx responses and fn errors are returned bare and never retried.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// streamFrom runs one SSE connection, resuming after event next-1 via
// Last-Event-ID, and invokes fn for every event with Seq >= next (the
// dedupe makes redelivery by a replaying server harmless). It returns the
// next cursor, whether the terminal "done" event was seen, and the error
// that ended the attempt; a dropped connection or a stream that ends before
// the job does comes back as a transient error (Stream reconnects on those),
// while non-2xx responses are *APIError and fn errors are returned bare.
// It is the single-connection primitive beneath Stream. (The coordinator
// follows a re-dispatched job with Stream too, skipping the replayed prefix
// by count.)
func (c *Client) streamFrom(ctx context.Context, id string, next int, fn func(Event) error) (int, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return next, false, err
	}
	if next > 0 {
		hreq.Header.Set("Last-Event-ID", strconv.Itoa(next-1))
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return next, false, &transientError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return next, false, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "data:"); ok {
			data = append(data, strings.TrimPrefix(after, " ")...)
			continue
		}
		if line != "" || len(data) == 0 {
			continue // id:/event: fields and leading blanks
		}
		var e Event
		if err := json.Unmarshal(data, &e); err != nil {
			return next, false, &transientError{fmt.Errorf("serve: bad event %q: %v", data, err)}
		}
		data = data[:0]
		if e.Seq < next {
			continue // already delivered before a reconnect
		}
		next = e.Seq + 1
		if fn != nil {
			if err := fn(e); err != nil {
				return next, false, err
			}
		}
		if e.Type == "done" {
			return next, true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return next, false, &transientError{err}
	}
	return next, false, &transientError{fmt.Errorf("serve: event stream for %s ended before the job did", id)}
}

// Stream follows the job's SSE progress stream, invoking fn for every event
// exactly once, in order. Transient disconnects are survived transparently:
// the client reconnects with Last-Event-ID (jittered exponential backoff)
// and resumes where it left off, so fn never sees a duplicate or a gap. It
// returns when the job reaches a terminal state (the last delivered event
// has type "done"), when fn returns a non-nil error (which Stream
// propagates), when ctx is cancelled, or when streamMaxAttempts consecutive
// reconnects yield no new event.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	next := 0
	fails := 0
	var lastErr error
	for {
		n, done, err := c.streamFrom(ctx, id, next, fn)
		if done {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var te *transientError
		if !errors.As(err, &te) {
			return err // fn error or APIError: the caller's business
		}
		if n > next {
			fails = 0 // progress: the stream is alive, keep following it
		}
		next = n
		fails++
		lastErr = te.err
		if fails >= streamMaxAttempts {
			return fmt.Errorf("serve: stream %s: giving up after %d reconnects without progress: %w", id, fails, lastErr)
		}
		if err := sleepCtx(ctx, Jitter(BackoffStep(streamBackoffBase, streamBackoffCap, fails-1))); err != nil {
			return err
		}
	}
}

// BackoffStep is base·2^n capped at max.
func BackoffStep(base, max time.Duration, n int) time.Duration {
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Wait blocks until the job reaches a terminal state and returns its final
// status. It long-polls the status (GET /v1/jobs/{id}?wait=1), one request
// that the server answers when the job ends. A non-terminal answer the
// server held for at least waitHeld — the job outlived the server's wait
// cap — is followed by the next long-poll at once. A non-terminal answer
// that came sooner, as from a server that ignores wait, or a failed
// request is retried with jittered exponential backoff, so Wait never
// loops without blocking and a reachable job is never abandoned.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	delay := waitPollBase
	fails := 0
	for {
		start := time.Now()
		var st JobStatus
		err := c.getJSON(ctx, "/v1/jobs/"+id+"?wait=1", &st)
		var apiErr *APIError
		switch {
		case err == nil && st.State.Terminal():
			return &st, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case errors.As(err, &apiErr):
			return nil, err
		case err == nil && time.Since(start) >= waitHeld:
			fails, delay = 0, waitPollBase
			continue
		case err == nil:
			fails = 0
		default:
			if fails++; fails >= waitMaxPollFails {
				return nil, fmt.Errorf("serve: wait %s: %d consecutive poll failures: %w", id, fails, err)
			}
		}
		if err := sleepCtx(ctx, Jitter(delay)); err != nil {
			return nil, err
		}
		if delay *= 2; delay > waitPollCap {
			delay = waitPollCap
		}
	}
}

// SolutionBytes downloads the finished job's solution verbatim, without
// parsing. The raw bytes are what replay equivalence and content digests
// are defined over, so the coordinator stores and compares these.
func (c *Client) SolutionBytes(ctx context.Context, id string, format Format) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id+"/solution?format="+format.query(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Solution downloads and parses the finished job's solution.
func (c *Client) Solution(ctx context.Context, id string, format Format) (*tdmroute.Solution, error) {
	st, err := c.Status(ctx, id)
	if err != nil {
		return nil, err
	}
	body, err := c.SolutionBytes(ctx, id, format)
	if err != nil {
		return nil, err
	}
	switch format {
	case FormatJSON:
		return problem.ParseSolutionJSON(bytes.NewReader(body), st.NumEdges)
	case FormatBinary:
		return problem.ParseSolutionBinary(bytes.NewReader(body), st.NumEdges)
	}
	return problem.ParseSolution(bytes.NewReader(body), st.NumEdges)
}

// Metrics fetches the raw text metrics exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Healthy reports whether the server answers /healthz with "ok".
func (c *Client) Healthy(ctx context.Context) (bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64))
	if err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusOK && strings.TrimSpace(string(b)) == "ok", nil
}
