package coord

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"tdmroute"
	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
)

// Typed terminal errors. The chaos sweep's invariant is that every
// coordinator job ends either byte-identical to an uninterrupted run or with
// an error that unwraps to one of these (or to a context error) — never an
// arbitrary failure string.
var (
	// ErrNoBackends: no backend is eligible (every breaker is open).
	ErrNoBackends = errors.New("coord: no live backends")
	// ErrAttemptsExhausted: the dispatch budget ran out before any backend
	// carried the job to completion.
	ErrAttemptsExhausted = errors.New("coord: dispatch attempts exhausted")
	// ErrCorruptResponse: a backend's solution bytes did not match its own
	// content digest (PerfRow.SolutionSHA256); the response was discarded.
	ErrCorruptResponse = errors.New("coord: backend returned corrupt solution bytes")
	// ErrSessionLost: a delta job's backend (and with it the pinned warm
	// session) became unreachable; deltas cannot be re-dispatched.
	ErrSessionLost = errors.New("coord: warm session lost with its backend")
	// errStalled marks a partitioned backend: the event stream delivered
	// nothing for the stall budget while the job should have been running.
	errStalled = errors.New("coord: backend event stream stalled")
)

// cjob is one coordinator job: the submission it proxies, the backend
// placement, the coordinator-side event log (re-sequenced across
// re-dispatches), and the verified terminal result.
type cjob struct {
	id      string
	sub     serve.SubmitRequest
	key     string
	created time.Time
	// isDelta pins the job to its base's backend: no cache, no re-dispatch
	// (the warm session exists nowhere else). The handler forwards the delta
	// synchronously, so a delta cjob is born already placed.
	isDelta bool
	// baseID is the coordinator id of the base job (deltas only).
	baseID string

	mu      sync.Mutex
	state   serve.State
	backend string // current backend name; "cache" for cache hits
	// remoteID is the job's id on the current backend.
	remoteID string
	events   []serve.Event
	// notify is closed and replaced whenever an event is appended;
	// SSE subscribers re-fetch and re-arm.
	notify chan struct{}
	// final is the verified terminal status (coordinator ids, Backend set).
	final     *serve.JobStatus
	sol       *tdmroute.Solution
	solText   []byte
	err       error
	cancelled bool
	attempts  int
}

func newCJob(sub serve.SubmitRequest) *cjob {
	return &cjob{
		sub:     sub,
		created: time.Now(),
		state:   serve.StateQueued,
		//lint:ignore rawgo job event broadcast channel, not solver parallelism: closed to wake SSE subscribers
		notify: make(chan struct{}),
	}
}

// appendEvent re-sequences an event into the coordinator's log and wakes
// subscribers. Events arriving from a re-dispatched backend have already
// been prefix-skipped by the caller, so the log is exactly-once.
func (j *cjob) appendEvent(e serve.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(e)
}

func (j *cjob) appendEventLocked(e serve.Event) {
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	if e.Type == "state" && e.State != "" {
		j.state = e.State
	}
	close(j.notify)
	//lint:ignore rawgo job event broadcast channel, not solver parallelism: re-armed after each broadcast
	j.notify = make(chan struct{})
}

// eventCount returns the number of events already broadcast — the replay
// prefix a re-dispatched backend's stream must skip.
func (j *cjob) eventCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// eventsSince mirrors serve's job.eventsSince: a snapshot from the clamped
// cursor, the wake channel, and stream completion.
func (j *cjob) eventsSince(seq int) ([]serve.Event, int, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq > len(j.events) {
		seq = len(j.events)
	}
	evs := append([]serve.Event(nil), j.events[seq:]...)
	return evs, seq, j.notify, j.state.Terminal() && seq+len(evs) == len(j.events)
}

// setPlacement records the job's current backend and remote id.
func (j *cjob) setPlacement(backend, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.backend = backend
	j.remoteID = remoteID
	j.attempts++
}

// placement returns the current backend name and remote id.
func (j *cjob) placement() (string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.backend, j.remoteID
}

func (j *cjob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// requestCancel marks the job cancelled and returns its state plus the
// placement the caller must forward the cancellation to. The coordinator
// does not transition the state here: a running remote job ends with its
// best-so-far incumbent, which the dispatch loop collects like any result.
func (j *cjob) requestCancel() (serve.State, string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelled = true
	return j.state, j.backend, j.remoteID
}

func (j *cjob) isCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// finish records the verified terminal result exactly once and appends the
// coordinator's own done event (backend done events are filtered out of the
// proxy stream, so re-dispatch can never leak a premature one).
func (j *cjob) finish(state serve.State, final *serve.JobStatus, sol *tdmroute.Solution, text []byte, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.final = final
	j.sol = sol
	j.solText = text
	j.err = err
	e := serve.Event{Type: "done", State: state}
	if err != nil {
		e.Error = err.Error()
	}
	j.appendEventLocked(e)
	return true
}

// status snapshots the job in wire form. For terminal jobs it is the
// verified backend status re-identified under the coordinator's ids; before
// that it is built from the coordinator's own bookkeeping.
func (j *cjob) status() *serve.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		st := *j.final
		st.ID = j.id
		st.BaseID = j.baseID
		st.Backend = j.backend
		st.Events = len(j.events)
		if j.err != nil {
			st.Error = j.err.Error()
		}
		return &st
	}
	st := &serve.JobStatus{
		ID:      j.id,
		State:   j.state,
		Mode:    j.sub.Mode.String(),
		BaseID:  j.baseID,
		Created: j.created,
		Events:  len(j.events),
		Backend: j.backend,
	}
	if j.isDelta {
		st.Mode = tdmroute.ModeDelta.String()
	}
	if j.sub.Instance != nil {
		st.Bench = j.sub.Instance.Name
		st.NumEdges = j.sub.Instance.G.NumEdges()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// solution returns the verified terminal solution, or nils.
func (j *cjob) solution() (*tdmroute.Solution, []byte, *serve.JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sol, j.solText, j.final
}

// dispatch is a job's coordinator-side life: place it, submit it, proxy its
// event stream, and collect the verified result — re-dispatching to the next
// live backend each time one is lost mid-job, up to the attempt budget.
// Determinism makes the re-dispatch replay-safe: the rerun's event stream
// and solution bytes are identical to the lost run's, so the proxy skips the
// already-broadcast prefix and the client sees one uninterrupted job.
func (co *Coordinator) dispatch(j *cjob) {
	defer co.wg.Done()
	failed := map[string]bool{}
	var lastErr error
	for attempt := 0; attempt < co.cfg.MaxAttempts; attempt++ {
		if j.isCancelled() && j.eventCount() == 0 {
			// Cancelled before any backend made progress: terminal here.
			co.finishJob(j, serve.StateCanceled, nil, nil, nil, context.Canceled)
			return
		}
		b := co.place(j.key, failed)
		if b == nil {
			co.finishJob(j, serve.StateFailed, nil, nil, nil,
				fmt.Errorf("%w (job %s, attempt %d)", ErrNoBackends, j.id, attempt+1))
			return
		}
		if attempt > 0 {
			co.metrics.retries.Add(1)
			co.logf("job %s: re-dispatching to %s (attempt %d): %v", j.id, b.name, attempt+1, lastErr)
		}
		remoteID, err := co.submitTo(b, j)
		if err != nil {
			co.observeError(b, err)
			failed[b.name] = true
			lastErr = err
			continue
		}
		b.markOK()
		j.setPlacement(b.name, remoteID)
		if j.isCancelled() {
			// The cancel raced the submit; forward it so the backend ends
			// the run with its incumbent rather than solving to completion.
			cctx, cancel := co.unaryCtx(context.Background())
			b.client.Cancel(cctx, remoteID)
			cancel()
		}
		err = co.follow(j, b, remoteID)
		if err == nil {
			return // collected: finishJob already ran
		}
		co.observeError(b, err)
		failed[b.name] = true
		lastErr = err
	}
	co.finishJob(j, serve.StateFailed, nil, nil, nil,
		fmt.Errorf("%w (%d attempts, last: %v)", ErrAttemptsExhausted, co.cfg.MaxAttempts, lastErr))
}

// submitTo submits the job to one backend and returns the remote job id.
func (co *Coordinator) submitTo(b *backend, j *cjob) (string, error) {
	ctx, cancel := co.unaryCtx(context.Background())
	defer cancel()
	st, err := b.client.Submit(ctx, j.sub)
	if err != nil {
		return "", err
	}
	return st.ID, nil
}

// runDelta is the dispatch loop's delta counterpart: the handler already
// placed and submitted the job, so all that remains is following the stream
// and collecting. There is no re-dispatch — the warm session exists only on
// this backend, so losing it is the typed ErrSessionLost, never a silent
// cold re-solve on another node.
func (co *Coordinator) runDelta(j *cjob, b *backend) {
	defer co.wg.Done()
	_, remoteID := j.placement()
	if err := co.follow(j, b, remoteID); err != nil {
		co.observeError(b, err)
		co.finishJob(j, serve.StateFailed, nil, nil, nil,
			fmt.Errorf("%w: backend %s: %v", ErrSessionLost, b.name, err))
	}
}

// follow proxies one backend run: it streams events (filtering backend done
// events and skipping the prefix a previous backend already delivered),
// watches for stalls, and on stream completion collects and verifies the
// result. A nil return means the job reached a verified terminal state; an
// error means the backend was lost and the caller decides about re-dispatch.
func (co *Coordinator) follow(j *cjob, b *backend, remoteID string) error {
	skip := j.eventCount()
	seen := 0
	sctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	//lint:ignore rawgo stream activity channel, not solver parallelism: feeds the partition watchdog
	activity := make(chan struct{}, 1)
	//lint:ignore rawgo stream completion channel, not solver parallelism: hands the stream error to the watchdog loop
	errc := make(chan error, 1)
	//lint:ignore rawgo event stream follower, not solver parallelism: the watchdog must be able to abandon a partitioned (hanging) connection
	go func() {
		errc <- b.client.Stream(sctx, remoteID, func(e serve.Event) error {
			select {
			case activity <- struct{}{}:
			default:
			}
			if e.Type == "done" {
				return nil // the coordinator emits its own on verified finish
			}
			if seen++; seen <= skip {
				return nil // replayed prefix of a re-dispatched run
			}
			j.appendEvent(e)
			return nil
		})
	}()
	watchdog := time.NewTimer(co.cfg.StallTimeout)
	defer watchdog.Stop()
	for {
		select {
		case err := <-errc:
			if err != nil {
				return err // connection lost and reconnects exhausted
			}
			return co.collect(j, b, remoteID)
		case <-activity:
			if !watchdog.Stop() {
				<-watchdog.C
			}
			watchdog.Reset(co.cfg.StallTimeout)
		case <-watchdog.C:
			cancel()
			<-errc
			return fmt.Errorf("%w: backend %s silent for %v on job %s",
				errStalled, b.name, co.cfg.StallTimeout, remoteID)
		}
	}
}

// collect fetches and verifies the terminal result of a remote job. Solution
// bytes are checked against the backend's own content digest before they are
// accepted; a mismatch is a corrupt response — counted, and returned as an
// error so the dispatch loop retries elsewhere.
func (co *Coordinator) collect(j *cjob, b *backend, remoteID string) error {
	ctx, cancel := co.unaryCtx(context.Background())
	defer cancel()
	st, err := b.client.Status(ctx, remoteID)
	if err != nil {
		return err
	}
	if st.Response == nil {
		// Failed/canceled without an incumbent: terminal, nothing to verify.
		// (A decoded Response never carries the solution itself — its
		// presence is the signal; the bytes come from the solution endpoint.)
		co.finishJob(j, st.State, st, nil, nil, remoteErr(st))
		return nil
	}
	text, err := b.client.SolutionBytes(ctx, remoteID, serve.FormatText)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(text)
	want := ""
	if st.Telemetry != nil {
		want = st.Telemetry.SolutionSHA256
	}
	if got := hex.EncodeToString(digest[:]); got != want {
		co.metrics.corrupt.Add(1)
		return fmt.Errorf("%w: backend %s job %s: got %s, telemetry says %s",
			ErrCorruptResponse, b.name, remoteID, got, want)
	}
	sol, err := problem.ParseSolution(bytes.NewReader(text), st.NumEdges)
	if err != nil {
		co.metrics.corrupt.Add(1)
		return fmt.Errorf("%w: backend %s job %s: digest matched but bytes do not parse: %v",
			ErrCorruptResponse, b.name, remoteID, err)
	}
	// Cache before finishing: a client that has seen this job finish may
	// resubmit the same content at once and must find it.
	if st.State == serve.StateDone && st.Response.Degraded == nil && !j.isDelta && j.key != "" {
		co.cache.put(&cacheEntry{key: j.key, status: *st, sol: sol, text: text})
	}
	co.finishJob(j, st.State, st, sol, text, remoteErr(st))
	return nil
}

// remoteErr reconstructs the terminal error a backend reported, preserving
// the typed context sentinels so coordinator clients can errors.Is them.
func remoteErr(st *serve.JobStatus) error {
	if st.Error == "" {
		return nil
	}
	switch st.Error {
	case context.Canceled.Error():
		return context.Canceled
	case context.DeadlineExceeded.Error():
		return context.DeadlineExceeded
	}
	return errors.New(st.Error)
}

// finishJob records the outcome in the job and the metrics.
func (co *Coordinator) finishJob(j *cjob, state serve.State, final *serve.JobStatus, sol *tdmroute.Solution, text []byte, err error) {
	if !j.finish(state, final, sol, text, err) {
		return
	}
	co.metrics.observeOutcome(state, final)
	backend, _ := j.placement()
	if err != nil {
		co.logf("job %s: %s on %s: %v", j.id, state, backend, err)
	} else {
		co.logf("job %s: %s on %s", j.id, state, backend)
	}
}
