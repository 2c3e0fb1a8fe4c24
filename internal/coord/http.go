package coord

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"tdmroute/internal/serve"
)

// Submit resolves a validated submission against the result cache and
// dispatches misses to a backend chosen by rendezvous placement. A cache
// hit creates a job that is born terminal — no backend, no solver, the
// result replayed from content address — which the acceptance metrics
// (cache_hits_total vs backend accepted counters) make observable.
func (co *Coordinator) Submit(sub serve.SubmitRequest) (serve.Job, error) {
	j := co.newJob(sub)
	j.text, j.key = contentKey(sub)

	// Retained submissions need a live warm session, so they always run;
	// everything else may be answered from the content-addressed cache.
	if !sub.Retain {
		if e := co.cache.get(j.key); e != nil {
			co.metrics.cacheHits.Add(1)
			co.Register(j)
			j.Mutex.Lock()
			j.backend = "cache"
			j.Mutex.Unlock()
			st := e.status
			co.finishJob(j, serve.StateDone, &st, e.sol, e.text, nil)
			co.Logf("job %s: cache hit (%s)", j.ID(), j.key[:12])
			return j, nil
		}
		co.metrics.cacheMisses.Add(1)
	}
	co.Register(j)
	co.Go(func() { co.dispatch(j) })
	return j, nil
}

// Delta forwards an ECO re-solve to the backend holding the base job's
// warm session. The forwarding is synchronous so the backend's conflict
// answers (409 busy, 410 gone) surface as this request's response; only
// the progress proxying runs on after 202. A base whose backend has since
// died — or that was answered from the cache and never ran anywhere — is a
// deterministic 410: the warm session does not exist. The forward is
// bounded by RequestTimeout, not by the client's request: abandoning it
// half-way could leave a delta job on the backend, holding the warm
// session, that the coordinator never follows.
func (co *Coordinator) Delta(sbase serve.Job, doc serve.DeltaDoc, deadline time.Duration) (serve.Job, error) {
	base := sbase.(*cjob)
	backendName, remoteID := base.placement()
	if backendName == "" || backendName == "cache" || remoteID == "" {
		return nil, serve.Errorf(http.StatusGone,
			"job %s has no warm session on any backend (cache hits and failed jobs retain nothing)", base.ID())
	}
	b := co.backendByName(backendName)
	if b == nil || !b.eligible() {
		return nil, serve.Errorf(http.StatusGone, "job %s's warm session is on backend %s, which is down", base.ID(), backendName)
	}

	ctx, cancel := co.unaryCtx(context.Background())
	st, err := b.client.SubmitDelta(ctx, remoteID, doc, deadline)
	cancel()
	if err != nil {
		var apiErr *serve.APIError
		if errors.As(err, &apiErr) {
			b.markOK()
			if apiErr.Status == http.StatusNotFound {
				// The backend restarted and forgot the base job; the warm
				// session died with the old process. Same contract as an
				// evicted session: gone, not a server error.
				return nil, serve.Errorf(http.StatusGone, "job %s's warm session was lost (backend %s restarted)", base.ID(), b.name)
			}
			return nil, serve.Errorf(apiErr.Status, "%s", apiErr.Message)
		}
		co.observeError(b, err)
		return nil, co.Unavailable("backend " + b.name + " unreachable: " + err.Error())
	}

	j := co.newJob(serve.SubmitRequest{})
	j.isDelta = true
	j.baseID = base.ID()
	co.Register(j)
	j.setPlacement(b.name, st.ID)
	co.Go(func() { co.runDelta(j, b) })
	return j, nil
}

// handleBackends reports each backend's breaker state — the coordinator's
// own view of the fleet, for operators and the smoke harness.
func (co *Coordinator) handleBackends(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name     string `json:"name"`
		URL      string `json:"url"`
		Breaker  string `json:"breaker"`
		Failures int64  `json:"failures_total"`
		Opens    int64  `json:"breaker_opens_total"`
	}
	var rows []row
	for _, b := range co.backends {
		rows = append(rows, row{
			Name:     b.name,
			URL:      b.url,
			Breaker:  b.breakerState().String(),
			Failures: b.failures.Load(),
			Opens:    b.opens.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}
