// Package coord is the fault-tolerant coordinator tier behind cmd/tdmcoord:
// a stdlib-only front for a fleet of tdmroutd backends, speaking the same
// HTTP+SSE protocol as a single node so clients cannot tell the difference.
// It is the second executor of serve.Core: the core answers every request
// exactly as it does for tdmroutd, and this package decides only how a job
// runs — placed on a backend, proxied, verified and cached.
//
// The coordinator never solves anything itself. A submission is validated
// locally (serve.ParseSubmit — malformed instances are rejected identically
// to a single node), keyed by a content address over the canonical instance
// bytes and the normalized solver options, and placed on a backend by
// rendezvous hashing, so identical work lands on the same node and a node
// joining or leaving reshuffles only its own share. Identical submissions
// short-circuit entirely: the solver pipeline is deterministic, so a
// completed (non-degraded) result is content-addressed and replayed from the
// coordinator's LRU result cache without touching any backend.
//
// Fault tolerance leans on the same determinism. When a backend dies
// mid-job, the coordinator re-dispatches the identical submission to the
// next live node; the rerun emits a byte-identical event stream and
// solution, so the coordinator resumes proxying events exactly where the
// dead backend stopped (skipping the replayed prefix by count) and the
// client observes one uninterrupted job — the replay-equivalence guarantee
// the chaos suite enforces. Every completed solution is verified against the
// backend's own content digest (Telemetry.SolutionSHA256) before it is served
// or cached, so a corrupted response becomes a retry and, past the attempt
// budget, a typed error — never silently wrong bytes.
//
// Backends are health-checked by per-node probers with jittered exponential
// backoff and a three-state circuit breaker (closed → open after
// consecutive failures → half-open after a successful probe); open backends
// are excluded from placement. Delta (ECO) jobs are pinned: the warm session
// lives only on the node that solved the base job, so deltas follow it and a
// lost backend surfaces as a typed gone-error rather than a silent cold
// re-solve.
//
// The raw concurrency in this package (dispatch goroutines, probers, event
// broadcast channels) is coordination plumbing, not solver parallelism;
// every primitive carries a lint:ignore rawgo justification.
package coord

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"tdmroute/internal/serve"
)

// Config tunes the coordinator.
type Config struct {
	// Backends are the tdmroutd base URLs fronted by this coordinator.
	// At least one is required.
	Backends []string
	// HTTPClient is used for every backend call; defaults to
	// http.DefaultClient. Streams are long-lived, so a client with a global
	// Timeout would sever them — use transport-level timeouts instead.
	HTTPClient *http.Client
	// CacheEntries bounds the content-addressed result cache. Zero selects
	// 256; negative disables caching.
	CacheEntries int
	// MaxBodyBytes caps submission bodies. Zero selects 64 MiB.
	MaxBodyBytes int64
	// RetryAfter is the Retry-After hint on 503 rejections. Zero selects 1s.
	RetryAfter time.Duration
	// MaxAttempts bounds dispatches per job (first dispatch + re-dispatches
	// after backend loss). Zero selects 3.
	MaxAttempts int
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker. Zero selects 3.
	BreakerThreshold int
	// ProbeInterval is the base health-check interval; an open breaker's
	// prober backs off exponentially (jittered) from it up to ProbeBackoffCap.
	// Zeros select 2s and 30s.
	ProbeInterval   time.Duration
	ProbeBackoffCap time.Duration
	// RequestTimeout bounds each unary backend call (submit, status,
	// solution, cancel). Zero selects 30s. Streams are bounded by
	// StallTimeout instead.
	RequestTimeout time.Duration
	// StallTimeout declares a backend partitioned when its event stream
	// delivers nothing for this long while the job is supposed to be
	// running; the job is then re-dispatched. Zero selects 2m.
	StallTimeout time.Duration
	// Logf, when non-nil, receives one line per coordinator transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeBackoffCap <= 0 {
		c.ProbeBackoffCap = 30 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 2 * time.Minute
	}
	return c
}

// Coordinator is the coordinator node: the shared serve.Core with an
// executor that proxies each job to a backend. Create it with New, expose
// Handler over HTTP, and stop it with Shutdown.
type Coordinator struct {
	*serve.Core
	cfg      Config
	backends []*backend
	cache    *resultCache
	metrics  metrics
}

// New starts a coordinator: its per-backend health probers run until
// Shutdown. It fails fast on an empty backend list.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("coord: no backends configured")
	}
	co := &Coordinator{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries),
	}
	for _, u := range cfg.Backends {
		b, err := newBackend(u, cfg)
		if err != nil {
			return nil, err
		}
		co.backends = append(co.backends, b)
	}
	// The "c" id prefix keeps coordinator ids disjoint from backend "j" ids,
	// so a log line or a mixed-up client is never ambiguous about the tier.
	co.Core = serve.NewCore(co, "tdmcoord", "c", cfg.RetryAfter, cfg.MaxBodyBytes, cfg.Logf)
	co.HandleFunc("GET /v1/backends", co.handleBackends)
	for _, b := range co.backends {
		co.Go(func() { co.probe(b) })
	}
	return co, nil
}

// live returns the backends currently eligible for placement (breaker not
// open), in configuration order.
func (co *Coordinator) live() []*backend {
	var out []*backend
	for _, b := range co.backends {
		if b.eligible() {
			out = append(out, b)
		}
	}
	return out
}

// probe is one backend's health loop: a periodic check while the breaker is
// closed, jittered exponential backoff while it is open, and the
// open→half-open transition on the first success.
func (co *Coordinator) probe(b *backend) {
	delay := co.cfg.ProbeInterval
	for {
		t := time.NewTimer(serve.Jitter(delay))
		select {
		case <-co.Stopping():
			t.Stop()
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), co.cfg.RequestTimeout)
		ok, err := b.client.Healthy(ctx)
		cancel()
		if ok {
			if b.probeSuccess() {
				co.Logf("backend %s: probe ok, breaker half-open", b.name)
			}
			delay = co.cfg.ProbeInterval
			continue
		}
		if opened := b.probeFailure(co.cfg.BreakerThreshold); opened {
			co.Logf("backend %s: breaker open (probe: %v)", b.name, err)
		}
		if b.breakerState() == breakerOpen {
			delay = serve.BackoffStep(co.cfg.ProbeInterval, co.cfg.ProbeBackoffCap, b.consecutiveFails())
		}
	}
}

// Shutdown drains the coordinator: submissions are rejected with Retry-After
// from this point on, in-flight jobs are cancelled on their backends (which
// finish them with best-so-far incumbents the dispatch loops then collect),
// and probers stop. It returns once every dispatch goroutine has finished,
// or with ctx's error if that takes longer than the caller allows; the
// forwarded cancels are bounded by ctx too, so a backend that hangs on
// DELETE cannot hold the drain past its deadline.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	err := co.Drain(ctx, func(jobs []serve.Job) {
		for _, j := range jobs {
			if j := j.(*cjob); !j.State().Terminal() {
				co.cancelJob(ctx, j)
			}
		}
	})
	if err != nil {
		return err
	}
	co.Logf("coordinator drained: %s, cache hits %d, retries %d",
		co.Summary(), co.metrics.cacheHits.Load(), co.metrics.retries.Load())
	return nil
}

// unaryCtx derives the bounded context for one unary backend call.
func (co *Coordinator) unaryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, co.cfg.RequestTimeout)
}

// cancelJob marks the job cancelled and forwards the cancellation to its
// current backend (best-effort: a dead backend's job dies with it).
func (co *Coordinator) cancelJob(ctx context.Context, j *cjob) serve.State {
	state, backendName, remoteID := j.requestCancel()
	if backendName != "" && remoteID != "" {
		if b := co.backendByName(backendName); b != nil {
			cctx, cancel := co.unaryCtx(ctx)
			if err := b.client.Cancel(cctx, remoteID); err != nil {
				co.Logf("job %s: cancel on %s failed: %v", j.ID(), backendName, err)
			}
			cancel()
		}
	}
	return state
}

func (co *Coordinator) backendByName(name string) *backend {
	for _, b := range co.backends {
		if b.name == name {
			return b
		}
	}
	return nil
}
