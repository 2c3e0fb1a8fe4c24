// Package serve is the serving core behind both daemons, cmd/tdmroutd and
// cmd/tdmcoord, and the local executor tdmroutd runs on it.
//
// The core (Core) is everything a client sees the same way from either
// tier: the job table, each job's replayable event log (JobLog), the HTTP
// handlers below, 503 refusals with Retry-After, the admission and outcome
// counters, the drain, and the daemon's signal loop (Daemon). A tier
// embeds it and supplies an Executor — how a job runs — plus a job type
// implementing Job. Server is the local executor: a stdlib-only HTTP job
// server wrapping tdmroute.Run. Jobs enter a bounded queue and are solved
// by a fixed worker pool; each job runs under its own
// context with an optional deadline, so cancellation (DELETE) and deadline
// expiry degrade a run to its best-so-far legal incumbent through the
// package's anytime machinery instead of losing it. Progress (feedback
// rounds and LR iterations) streams over SSE, worker panics are contained
// per job by par.Capture, and a draining Shutdown finishes in-flight jobs
// with their incumbents while rejecting queued and newly submitted ones
// with Retry-After.
//
// Endpoints:
//
//	POST   /v1/jobs             submit an instance (text, JSON, or binary;
//	                            multipart with a fixed routing for assign mode)
//	GET    /v1/jobs/{id}        job status + response + solution digest
//	GET    /v1/jobs/{id}/events progress stream (SSE)
//	GET    /v1/jobs/{id}/solution solution in any solution format
//	DELETE /v1/jobs/{id}        cancel (running jobs keep their incumbent)
//	GET    /metrics             text metrics: queue depth, jobs by outcome,
//	                            per-stage wall histograms, GTR distribution
//	GET    /healthz             liveness (also reports draining)
//
// The raw concurrency in this package (worker goroutines, the queue
// channel, event broadcast channels) is server plumbing, not solver
// parallelism; solver determinism is untouched because every solve still
// runs through tdmroute.Run. Each primitive carries a lint:ignore rawgo
// justification.
package serve

import (
	"context"
	"errors"
	"time"

	"tdmroute"
	"tdmroute/internal/par"
)

// Config tunes the server.
type Config struct {
	// Workers is the solve worker pool size: the number of jobs in flight
	// at once. Zero selects 2; negative starts no workers (jobs queue
	// until Shutdown rejects them — useful for drain rehearsals and
	// tests).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; submissions beyond
	// it are rejected with 503 and Retry-After. Zero selects 16.
	QueueDepth int
	// DefaultDeadline applies to jobs submitted without one (0 = none).
	DefaultDeadline time.Duration
	// MaxDeadline clamps per-job deadlines; jobs without a deadline get
	// it too (0 = unlimited).
	MaxDeadline time.Duration
	// MaxBodyBytes caps the request body of a submission. Zero selects
	// 64 MiB.
	MaxBodyBytes int64
	// RetryAfter is the Retry-After value on 503 rejections. Zero
	// selects 1s.
	RetryAfter time.Duration
	// MaxWarmSessions bounds the warm solver sessions retained for delta
	// re-solves (?retain=1 submissions). Retaining beyond the bound evicts
	// the least recently used idle session. Zero selects 4; negative
	// disables retention.
	MaxWarmSessions int
	// SolveOptions is the base solver configuration; per-job query
	// parameters (epsilon, maxiter, ripup, workers, pow2) override it.
	SolveOptions tdmroute.Options
	// Logf, when non-nil, receives one line per job transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxWarmSessions == 0 {
		c.MaxWarmSessions = 4
	}
	return c
}

// Server is the job server: the shared Core with a local executor — a
// bounded queue, a fixed worker pool, and the node-resident warm sessions.
// Create it with New, expose Handler over HTTP, and stop it with Shutdown.
type Server struct {
	*Core
	cfg     Config
	queue   chan *job
	warm    *warmRegistry
	metrics metrics
}

// New starts a server: the worker pool runs until Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		//lint:ignore rawgo bounded job queue, not solver parallelism: backpressure boundary between HTTP submission and the worker pool
		queue: make(chan *job, cfg.QueueDepth),
		warm:  newWarmRegistry(cfg.MaxWarmSessions),
	}
	s.Core = NewCore(s, "tdmroutd", "j", cfg.RetryAfter, cfg.MaxBodyBytes, cfg.Logf)
	s.metrics.init()
	for i := 0; i < cfg.Workers; i++ {
		s.Go(s.worker)
	}
	return s
}

// Submit queues a validated submission, resolved against the server's
// solver defaults.
func (s *Server) Submit(sub SubmitRequest) (Job, error) {
	req, deadline := s.resolve(sub)
	j, err := s.submit(req, deadline, nil)
	if err != nil {
		return nil, err
	}
	return j, nil
}

// submit queues a new job. setup, when non-nil, configures the job (delta
// base id, finish hook) before it becomes visible to any worker. It fails
// with a 503 refusal when the server is draining or the queue is full.
func (s *Server) submit(req tdmroute.Request, deadline time.Duration, setup func(*job)) (*job, error) {
	deadline = s.clampDeadline(deadline)
	j := newJob(s, req, deadline)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The draining check and the enqueue happen under one lock against
	// Drain, so no job can slip into the queue after the drain sweep.
	if s.draining.Load() {
		s.submitRejected.Add(1)
		return nil, s.Unavailable("server is draining")
	}
	s.claimLocked(j)
	if setup != nil {
		setup(j)
	}
	select {
	case s.queue <- j:
	default:
		s.submitRejected.Add(1)
		return nil, s.Unavailable("job queue is full")
	}
	s.registerLocked(j)
	s.Logf("job %s: queued (mode %s, deadline %v)", j.id, req.Mode, deadline)
	return j, nil
}

func (s *Server) clampDeadline(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d
}

// worker is one pool goroutine: it runs jobs until Shutdown.
func (s *Server) worker() {
	for {
		select {
		case <-s.stopc:
			return
		case j := <-s.queue:
			if s.draining.Load() {
				s.reject(j)
				continue
			}
			s.runJob(j)
		}
	}
}

// runJob executes one job under its own context and records the outcome.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	if j.deadline > 0 {
		cancel()
		ctx, cancel = context.WithTimeout(context.Background(), j.deadline)
	}
	defer cancel()
	if !j.begin(cancel) {
		// Cancelled or rejected while queued; already terminal.
		return
	}
	// A drain that started between this worker's dequeue and begin() has
	// already swept the running jobs — this one was still queued then and
	// would run to completion un-cancelled. Observing the drain here closes
	// that window: the job degrades to its best-so-far incumbent like every
	// other in-flight job.
	if s.draining.Load() {
		cancel()
	}
	req := j.req
	req.OnProgress = j.progress
	var resp *tdmroute.Response
	// Contain any panic that escapes the solve: the job fails, the
	// worker survives, and the server keeps serving.
	err := par.Capture(func() error {
		var rerr error
		resp, rerr = tdmroute.Run(ctx, req)
		return rerr
	})
	s.finishJob(j, resp, err)
}

// finishJob classifies a finished solve and records it. An interrupted run
// that still produced a legal incumbent arrives as resp with Degraded set
// and a nil error; an error can still ride along with an incumbent (a
// ModeIterative hard failure after successful rounds), and only runs with no
// possible incumbent lose their response.
func (s *Server) finishJob(j *job, resp *tdmroute.Response, err error) {
	state := StateDone
	switch {
	case err != nil && resp != nil && resp.Solution != nil:
		// A hard error with a legal incumbent: keep the solution (it
		// validated in an earlier round) and report the run as degraded,
		// with the error on the job. Discarding it here used to throw away
		// every kept round of an iterative solve.
		if resp.Degraded == nil {
			resp.Degraded = &tdmroute.Degraded{
				Stage:          tdmroute.StageFeedback,
				Cause:          err,
				LRIterations:   resp.Report.Iterations,
				FeedbackRounds: resp.RoundsRun,
				IncumbentGTR:   resp.Report.GTRMax,
			}
		}
	case err != nil:
		resp = nil
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = StateCanceled
		} else {
			state = StateFailed
		}
	}
	// Strip the warm handle off the response before it is recorded: it
	// never travels over the wire, and retained sessions live in the
	// registry, keyed by the job that built them. Delta jobs return their
	// base job's handle, which stays under the base id (the finish hook
	// releases or drops it).
	if resp != nil && resp.Warm != nil {
		h := resp.Warm
		resp.Warm = nil
		if j.req.Mode != tdmroute.ModeDelta {
			if evicted, retained := s.warm.put(j.id, h); retained {
				s.metrics.warmRetained.Add(1)
				s.metrics.warmEvicted.Add(int64(evicted))
				s.Logf("job %s: warm session retained (%d evicted)", j.id, evicted)
			}
		}
	}
	var tel *Telemetry
	if resp != nil && resp.Solution != nil {
		if sum, derr := solutionDigest(resp.Solution); derr == nil {
			tel = &Telemetry{SolutionSHA256: sum}
		}
	}
	if !j.finish(state, resp, err, tel) {
		return
	}
	s.Observe(state, resp != nil && resp.Degraded != nil)
	s.metrics.observe(resp)
	if err != nil {
		s.Logf("job %s: %s: %v", j.id, state, err)
	} else {
		s.Logf("job %s: %s (GTR %d, degraded=%v)", j.id, state, resp.Report.GTRMax, resp.Degraded != nil)
	}
}

// reject evicts a queued job during drain.
func (s *Server) reject(j *job) {
	if j.finish(StateRejected, nil, errDraining, nil) {
		s.Observe(StateRejected, false)
		s.Logf("job %s: rejected (draining)", j.id)
	}
}

var errDraining = errors.New("serve: server draining; resubmit elsewhere or retry later")

// rejectQueued rejects every job still waiting in the queue.
func (s *Server) rejectQueued() {
	for {
		select {
		case j := <-s.queue:
			s.reject(j)
		default:
			return
		}
	}
}

// Shutdown drains the server: submissions are rejected from this point on,
// queued jobs are rejected (their submitters see state "rejected" — nothing
// is lost silently), and in-flight jobs are cancelled so they finish with
// their best-so-far incumbents. It returns once every worker has finished,
// or with ctx's error if that takes longer than the caller allows.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Drain(ctx, func(jobs []Job) {
		// Workers racing on the same channel also reject (never run) jobs
		// they pick up while draining.
		s.rejectQueued()
		// Cancel in-flight jobs: they finish with best-so-far incumbents.
		for _, j := range jobs {
			if j := j.(*job); j.State() == StateRunning {
				j.requestCancel()
			}
		}
	})
	if err != nil {
		return err
	}
	// A worker may have handed its last job to the queue path between the
	// sweeps; one final pass guarantees no queued job is left untracked.
	s.rejectQueued()
	s.Logf("drained: %s", s.Summary())
	return nil
}
