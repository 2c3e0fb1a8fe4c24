package serve

import (
	"context"
	"sync"
	"time"

	"tdmroute"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: accepted and waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is solving it.
	StateRunning State = "running"
	// StateDone: finished with a legal solution — possibly a best-so-far
	// incumbent; Response.Degraded distinguishes a full solve from a
	// curtailed one.
	StateDone State = "done"
	// StateFailed: finished with an error and no solution (malformed
	// instance reached the solver, or a contained panic before any
	// incumbent existed).
	StateFailed State = "failed"
	// StateCanceled: cancelled (DELETE or deadline) before any incumbent
	// existed.
	StateCanceled State = "canceled"
	// StateRejected: evicted from the queue by a draining shutdown; the
	// job never ran.
	StateRejected State = "rejected"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateRejected:
		return true
	}
	return false
}

// Event is one entry of a job's progress stream, delivered over SSE in
// order. Seq is the position in the stream; unused fields are omitted.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state", "round", "lr", "done"
	// State is set on "state" and "done" events.
	State State `json:"state,omitempty"`
	// Round is the feedback rounds started so far ("round" and "lr").
	Round int `json:"round,omitempty"`
	// Iter, Z, LB carry the LR convergence series ("lr" events).
	Iter int     `json:"iter,omitempty"`
	Z    float64 `json:"z,omitempty"`
	LB   float64 `json:"lb,omitempty"`
	// Error is set on "done" events of failed jobs.
	Error string `json:"error,omitempty"`
}

// JobStatus is the wire representation of a job served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Mode  string `json:"mode"`
	Bench string `json:"bench,omitempty"`
	// BaseID names the job whose warm session a delta job re-solves.
	BaseID string `json:"base_id,omitempty"`
	// NumEdges is the instance's edge count; solution parsers need it.
	NumEdges int       `json:"num_edges"`
	Created  time.Time `json:"created"`
	// Started/Finished are the zero time until the job reaches those
	// states.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Events is the progress events recorded so far.
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
	// Retained reports that the job's warm solver session is currently
	// resident on this node, i.e. a delta against this job can run here.
	// Coordinators use it to discover where ECO re-solves must be routed
	// (and when a session has been lost to eviction or a restart).
	Retained bool `json:"retained,omitempty"`
	// Backend names the node a job ran on. Only the coordinator tier
	// (tdmcoord) sets it — a single tdmroutd leaves it empty, and a job
	// answered from the coordinator's result cache reports "cache".
	Backend string `json:"backend,omitempty"`
	// Response is set once the job finished with a result (State done).
	Response *tdmroute.Response `json:"response,omitempty"`
	// Telemetry carries the solution digest, present for jobs that
	// produced a solution. Everything else about the solve (stage walls,
	// work counters, rounds) is in Response.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// Telemetry is what the serving tier records about a job's solution beyond
// its Response.
type Telemetry struct {
	// SolutionSHA256 is the hex SHA-256 of the text solution that
	// GET /v1/jobs/{id}/solution serves. The coordinator checks every
	// solution it fetches against it.
	SolutionSHA256 string `json:"solution_sha256"`
}

// JobLog is the part of a job both tiers keep the same way: its id, its
// lifecycle state, its replayable progress-event log and its terminal
// error. The embedded mutex also guards the fields each tier's job type
// keeps beside the log, so nobody can see a terminal state without the
// result that goes with it. Lock it as x.Mutex.Lock(), which is the form
// the mutexhold analyzer follows.
type JobLog struct {
	sync.Mutex
	id     string
	state  State
	events []Event
	// notify is closed when an event is appended; a subscriber that found
	// nothing new waits on it, then re-fetches. It is made on demand.
	notify chan struct{}
	// doneCh is closed by FinishLocked, so a long-poll waits for the end
	// without waking on every event. It is made on demand too, already
	// closed for a job that is terminal by then.
	doneCh chan struct{}
	err    error
}

func (l *JobLog) jobLog() *JobLog { return l }

// ID is the job's id on its tier, fixed when the job is registered.
func (l *JobLog) ID() string { return l.id }

// State returns the job's lifecycle state.
func (l *JobLog) State() State {
	l.Mutex.Lock()
	defer l.Mutex.Unlock()
	return l.state
}

// StateLocked is State for a caller that holds the lock.
func (l *JobLog) StateLocked() State { return l.state }

// Err returns the error the job ended with, if any.
func (l *JobLog) Err() error {
	l.Mutex.Lock()
	defer l.Mutex.Unlock()
	return l.err
}

// Len returns the number of events recorded so far.
func (l *JobLog) Len() int {
	l.Mutex.Lock()
	defer l.Mutex.Unlock()
	return len(l.events)
}

// Append records e at the end of the log and wakes subscribers.
func (l *JobLog) Append(e Event) {
	l.Mutex.Lock()
	defer l.Mutex.Unlock()
	l.appendLocked(e)
}

// appendLocked sequences e, moves the state when e carries one, and wakes
// subscribers.
func (l *JobLog) appendLocked(e Event) {
	e.Seq = len(l.events)
	l.events = append(l.events, e)
	if e.State != "" {
		l.state = e.State
	}
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// doneChan returns a channel that is closed once the job is terminal.
func (l *JobLog) doneChan() <-chan struct{} {
	l.Mutex.Lock()
	defer l.Mutex.Unlock()
	if l.doneCh == nil {
		//lint:ignore rawgo job completion broadcast channel, not solver parallelism: closed to wake long-polls
		l.doneCh = make(chan struct{})
		if l.state.Terminal() {
			close(l.doneCh)
		}
	}
	return l.doneCh
}

// FinishLocked moves the job to the terminal state and appends its "done"
// event, once: it returns false when the job is already terminal. The
// caller holds the lock and records its own result fields in the same
// region.
func (l *JobLog) FinishLocked(state State, err error) bool {
	if l.state.Terminal() {
		return false
	}
	l.err = err
	e := Event{Type: "done", State: state}
	if err != nil {
		e.Error = err.Error()
	}
	l.appendLocked(e)
	if l.doneCh != nil {
		close(l.doneCh)
	}
	return true
}

// StatusLocked fills the fields of st the log owns: ID, State, Events and,
// for a job that ended with an error, Error. The caller holds the lock.
func (l *JobLog) StatusLocked(st *JobStatus) {
	st.ID, st.State, st.Events = l.id, l.state, len(l.events)
	if l.err != nil {
		st.Error = l.err.Error()
	}
}

// since returns a copy of the events from seq on, the clamped position
// actually used, the channel that will be closed when more arrive, and
// whether the stream is complete (the job is terminal and every event has
// been handed out). seq is clamped to [0, len(events)]: a resume cursor
// beyond the log (a bogus Last-Event-ID) replays nothing and follows the
// live tail instead of parking the subscriber forever on a completion
// condition it can never satisfy.
func (l *JobLog) since(seq int) ([]Event, int, <-chan struct{}, bool) {
	l.Mutex.Lock()
	defer l.Mutex.Unlock()
	seq = min(max(seq, 0), len(l.events))
	evs := append([]Event(nil), l.events[seq:]...)
	if l.notify == nil {
		//lint:ignore rawgo job event broadcast channel, not solver parallelism: closed to wake SSE subscribers
		l.notify = make(chan struct{})
	}
	return evs, seq, l.notify, l.state.Terminal() && seq+len(evs) == len(l.events)
}

// job is one solve this server runs itself.
type job struct {
	JobLog
	srv      *Server
	req      tdmroute.Request
	deadline time.Duration
	numEdges int
	created  time.Time
	// baseID is the warm-session owner for delta jobs.
	baseID string
	// onFinish fires exactly once when the job reaches a terminal state, by
	// whatever path (solved, failed, cancelled while queued, rejected by a
	// drain). Delta jobs use it to release or drop their warm session.
	onFinish func()

	// Guarded by JobLog.Mutex.
	cancelFn context.CancelFunc // set while running
	resp     *tdmroute.Response
	tel      *Telemetry
	started  time.Time
	finished time.Time
}

func newJob(s *Server, req tdmroute.Request, deadline time.Duration) *job {
	return &job{
		srv:      s,
		req:      req,
		deadline: deadline,
		numEdges: req.Instance.G.NumEdges(),
		created:  time.Now(),
	}
}

// begin transitions queued→running and installs the cancel function. It
// returns false when the job is no longer queued (cancelled or rejected
// while waiting); the worker must then drop it without running.
func (j *job) begin(cancel context.CancelFunc) bool {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.cancelFn = cancel
	j.started = time.Now()
	j.appendLocked(Event{Type: "state", State: StateRunning})
	return true
}

// progress records one solver progress event.
func (j *job) progress(p tdmroute.Progress) {
	switch p.Kind {
	case tdmroute.ProgressRound:
		j.Append(Event{Type: "round", Round: p.Round + 1})
	default:
		j.Append(Event{Type: "lr", Round: p.Round, Iter: p.Iter, Z: p.Z, LB: p.LB})
	}
}

// finish records the terminal state. It is a no-op when the job already
// reached one (a queued job cancelled by DELETE and later swept by drain).
// Its callers own the job — the worker that ran it, or the drain that took
// it off the queue — so the finish hook runs before the state is recorded:
// a delta's warm session is free again by the time a client can see the
// job terminal, and the client's next delta does not meet a 409.
func (j *job) finish(state State, resp *tdmroute.Response, err error, tel *Telemetry) bool {
	j.Mutex.Lock()
	hook := j.onFinish
	j.onFinish = nil
	j.Mutex.Unlock()
	if hook != nil {
		hook()
	}
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	_, ok := j.finishLocked(state, resp, err, tel)
	return ok
}

// finishLocked records the terminal state under the held lock and hands
// back the finish hook, if finish has not taken it, which the caller runs
// after unlocking.
func (j *job) finishLocked(state State, resp *tdmroute.Response, err error, tel *Telemetry) (func(), bool) {
	if !j.FinishLocked(state, err) {
		return nil, false
	}
	j.resp = resp
	j.tel = tel
	j.cancelFn = nil
	j.finished = time.Now()
	hook := j.onFinish
	j.onFinish = nil
	return hook, true
}

// requestCancel implements DELETE: a queued job transitions to canceled
// immediately (reported via the returned bool so the server can record the
// outcome); a running job has its context cancelled and finishes on the
// worker with its best-so-far incumbent; a terminal job is untouched. The
// returned state is the state after the call.
func (j *job) requestCancel() (State, bool) {
	j.Mutex.Lock()
	switch j.state {
	case StateQueued:
		hook, _ := j.finishLocked(StateCanceled, nil, context.Canceled, nil)
		j.Mutex.Unlock()
		if hook != nil {
			hook()
		}
		return StateCanceled, true
	case StateRunning:
		if j.cancelFn != nil {
			j.cancelFn()
		}
	}
	st := j.state
	j.Mutex.Unlock()
	return st, false
}

// Cancel implements DELETE for the shared handlers and records the outcome
// of a job cancelled while still queued.
func (j *job) Cancel() State {
	state, wasQueued := j.requestCancel()
	if wasQueued {
		j.srv.Observe(StateCanceled, false)
		j.srv.Logf("job %s: canceled while queued", j.id)
	}
	return state
}

// Solution returns the job's solution, or nil while it has none.
func (j *job) Solution() (*tdmroute.Solution, []byte, *tdmroute.Degraded) {
	j.Mutex.Lock()
	defer j.Mutex.Unlock()
	if j.resp == nil {
		return nil, nil, nil
	}
	return j.resp.Solution, nil, j.resp.Degraded
}

// Status snapshots the job, with the node-resident state the job itself
// does not know: whether its warm session is still retained here.
func (j *job) Status() *JobStatus {
	j.Mutex.Lock()
	st := &JobStatus{
		Mode:      j.req.Mode.String(),
		Bench:     j.req.Instance.Name,
		BaseID:    j.baseID,
		NumEdges:  j.numEdges,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		Response:  j.resp,
		Telemetry: j.tel,
	}
	j.StatusLocked(st)
	j.Mutex.Unlock()
	st.Retained = j.srv.warm.has(j.id)
	return st
}
