package coord

import (
	"errors"
	"fmt"
	"net/url"
	"sync"
	"sync/atomic"

	"tdmroute/internal/serve"
)

// breakerState is a backend's circuit-breaker position.
type breakerState int32

const (
	// breakerClosed: healthy, fully eligible for placement.
	breakerClosed breakerState = iota
	// breakerHalfOpen: a probe succeeded after the breaker opened; the
	// backend is eligible again, and the next real request decides — success
	// closes the breaker, failure re-opens it.
	breakerHalfOpen
	// breakerOpen: consecutive failures exceeded the threshold; the backend
	// is excluded from placement until a probe succeeds.
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	}
	return fmt.Sprintf("breaker(%d)", int32(s))
}

// backend is one tdmroutd node fronted by the coordinator: its client, its
// circuit breaker, and its failure accounting.
type backend struct {
	name   string // host:port, the metrics label and placement identity
	url    string
	client *serve.Client

	mu    sync.Mutex
	state breakerState
	// fails counts consecutive failures (requests and probes); any success
	// resets it.
	fails int
	// failures and opens are lifetime counters for /metrics.
	failures atomic.Int64
	opens    atomic.Int64
	lastErr  error
}

func newBackend(raw string, cfg Config) (*backend, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("coord: bad backend URL %q", raw)
	}
	return &backend{
		name:   u.Host,
		url:    raw,
		client: &serve.Client{BaseURL: raw, HTTPClient: cfg.HTTPClient},
	}, nil
}

// eligible reports whether the placement may use this backend.
func (b *backend) eligible() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerOpen
}

func (b *backend) breakerState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *backend) consecutiveFails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}

// markOK records a successful real request: any breaker state collapses back
// to closed and the consecutive-failure budget refills.
func (b *backend) markOK() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.lastErr = nil
}

// markFail records a failed real request against threshold; it returns true
// when this failure opened the breaker. A half-open backend re-opens on its
// first failure — the trial request lost.
func (b *backend) markFail(err error, threshold int) (opened bool) {
	b.failures.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.lastErr = err
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= threshold) {
		if b.state != breakerOpen {
			opened = true
			b.opens.Add(1)
		}
		b.state = breakerOpen
	}
	return opened
}

// probeSuccess records a successful health check. An open breaker moves to
// half-open (the next request is the trial); a half-open one closes — two
// consecutive good probes are enough for an idle coordinator to recover a
// backend without waiting for traffic. It returns true on the open→half-open
// transition.
func (b *backend) probeSuccess() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	switch b.state {
	case breakerOpen:
		b.state = breakerHalfOpen
		return true
	case breakerHalfOpen:
		b.state = breakerClosed
	}
	return false
}

// probeFailure records a failed health check. The accounting matches
// markFail: a half-open backend re-opens on one miss (the recovery was
// premature), a closed one opens after threshold consecutive failures.
func (b *backend) probeFailure(threshold int) bool {
	b.failures.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= threshold) {
		b.state = breakerOpen
		b.opens.Add(1)
		return true
	}
	return false
}

// observeError classifies a backend call error: an APIError means the
// backend answered (it is alive — the request was just refused), anything
// else is a transport-level failure counted against the breaker.
func (co *Coordinator) observeError(b *backend, err error) {
	var apiErr *serve.APIError
	if errors.As(err, &apiErr) {
		b.markOK()
		return
	}
	if b.markFail(err, co.cfg.BreakerThreshold) {
		co.Logf("backend %s: breaker open: %v", b.name, err)
	}
}
