package coord

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
	// content digest (Telemetry.SolutionSHA256); the response was discarded.
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
	serve.JobLog
	co      *Coordinator
	sub     serve.SubmitRequest
	key     string
	created time.Time
	// isDelta pins the job to its base's backend: no cache, no re-dispatch
	// (the warm session exists nowhere else). The handler forwards the delta
	// synchronously, so a delta cjob is born already placed.
	isDelta bool
	// baseID is the coordinator id of the base job (deltas only).
	baseID string

	// Guarded by JobLog.Mutex.
	// text is sub's instance in canonical contest text, the bytes every
	// dispatch forwards and key addresses; finish drops it.
	text    []byte
	backend string // current backend name; "cache" for cache hits
	// remoteID is the job's id on the current backend.
	remoteID string
	// final is the verified terminal status (coordinator ids, Backend set).
	final     *serve.JobStatus
	sol       *tdmroute.Solution
	solText   []byte
	cancelled bool
}

func (co *Coordinator) newJob(sub serve.SubmitRequest) *cjob {
	return &cjob{co: co, sub: sub, created: time.Now()}
}

// setPlacement records the job's current backend and remote id.
func (j *cjob) setPlacement(backend, remoteID string) {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	j.backend = backend
	j.remoteID = remoteID
}

// placement returns the current backend name and remote id.
func (j *cjob) placement() (string, string) {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	return j.backend, j.remoteID
}

// requestCancel marks the job cancelled and returns its state plus the
// placement the caller must forward the cancellation to. The coordinator
// does not transition the state here: a running remote job ends with its
// best-so-far incumbent, which the dispatch loop collects like any result.
func (j *cjob) requestCancel() (serve.State, string, string) {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	j.cancelled = true
	return j.StateLocked(), j.backend, j.remoteID
}

func (j *cjob) isCancelled() bool {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	return j.cancelled
}

// Cancel implements DELETE: the cancellation is forwarded to the job's
// current backend. The forward is bounded by RequestTimeout, not by the
// DELETE request, so a client that hangs up does not abort it half-way.
func (j *cjob) Cancel() serve.State {
	return j.co.cancelJob(context.Background(), j)
}

// finish records the verified terminal result exactly once and appends the
// coordinator's own done event (backend done events are filtered out of the
// proxy stream, so re-dispatch can never leak a premature one).
func (j *cjob) finish(state serve.State, final *serve.JobStatus, sol *tdmroute.Solution, text []byte, err error) bool {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	if !j.FinishLocked(state, err) {
		return false
	}
	j.final = final
	j.sol = sol
	j.solText = text
	j.text = nil
	return true
}

// Status snapshots the job in wire form. For terminal jobs it is the
// verified backend status re-identified under the coordinator's ids; before
// that it is built from the coordinator's own bookkeeping.
func (j *cjob) Status() *serve.JobStatus {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	if j.final != nil {
		st := *j.final
		j.StatusLocked(&st)
		st.BaseID = j.baseID
		st.Backend = j.backend
		return &st
	}
	st := &serve.JobStatus{
		Mode:    j.sub.Mode.String(),
		BaseID:  j.baseID,
		Created: j.created,
		Backend: j.backend,
	}
	j.StatusLocked(st)
	if j.isDelta {
		st.Mode = tdmroute.ModeDelta.String()
	}
	if j.sub.Instance != nil {
		st.Bench = j.sub.Instance.Name
		st.NumEdges = j.sub.Instance.G.NumEdges()
	}
	return st
}

// Solution returns the verified terminal solution and its canonical text,
// or nils.
func (j *cjob) Solution() (*tdmroute.Solution, []byte, *tdmroute.Degraded) {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	var degraded *tdmroute.Degraded
	if j.final != nil && j.final.Response != nil {
		degraded = j.final.Response.Degraded
	}
	return j.sol, j.solText, degraded
}

// dispatch is a job's coordinator-side life: place it, submit it, proxy its
// event stream, and collect the verified result — re-dispatching to the next
// live backend each time one is lost mid-job, up to the attempt budget.
// Determinism makes the re-dispatch replay-safe: the rerun's event stream
// and solution bytes are identical to the lost run's, so the proxy skips the
// already-broadcast prefix and the client sees one uninterrupted job.
func (co *Coordinator) dispatch(j *cjob) {
	failed := map[string]bool{}
	var lastErr error
	for attempt := 0; attempt < co.cfg.MaxAttempts; attempt++ {
		if j.isCancelled() && j.Len() == 0 {
			// Cancelled before any backend made progress: terminal here.
			co.finishJob(j, serve.StateCanceled, nil, nil, nil, context.Canceled)
			return
		}
		b := co.place(j.key, failed)
		if b == nil {
			co.finishJob(j, serve.StateFailed, nil, nil, nil,
				fmt.Errorf("%w (job %s, attempt %d)", ErrNoBackends, j.ID(), attempt+1))
			return
		}
		if attempt > 0 {
			co.metrics.retries.Add(1)
			co.Logf("job %s: re-dispatching to %s (attempt %d): %v", j.ID(), b.name, attempt+1, lastErr)
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
	j.Mutex.Lock()
	text := j.text
	j.Mutex.Unlock()
	// ParseSubmit leaves sub.Format at FormatText, the form of text.
	st, err := b.client.SubmitEncoded(ctx, j.sub, text)
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
	skip := j.Len()
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
			j.Append(e)
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
	co.Observe(state, final != nil && final.Response != nil && final.Response.Degraded != nil)
	backend, _ := j.placement()
	if err != nil {
		co.Logf("job %s: %s on %s: %v", j.ID(), state, backend, err)
	} else {
		co.Logf("job %s: %s on %s", j.ID(), state, backend)
	}
}
