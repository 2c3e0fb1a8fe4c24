package coord

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// metrics holds the coordinator's own counters; the admission and outcome
// counters live in the serve.Core.
type metrics struct {
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	retries     atomic.Int64
	corrupt     atomic.Int64
}

// WriteMetrics renders the coordinator exposition: its own counters, the
// per-backend breaker gauges, and — for every backend that answers within
// the unary budget — that backend's full /metrics text with a
// backend="host:port" label injected into every sample, so one scrape of the
// coordinator sees the whole fleet.
func (co *Coordinator) WriteMetrics(buf *bytes.Buffer) {
	// Fetch the backend expositions before rendering: network IO happens
	// with no coordinator lock held.
	type bm struct {
		name string
		text string
	}
	fetched := make([]bm, len(co.backends))
	//lint:ignore rawgo concurrent metrics scrape fan-in, not solver parallelism: joins the per-backend fetch goroutines below
	var wg sync.WaitGroup
	for i, b := range co.backends {
		if !b.eligible() {
			continue
		}
		wg.Add(1)
		//lint:ignore rawgo concurrent metrics scrape, not solver parallelism: one slow backend must not serialize the whole exposition
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := co.unaryCtx(context.Background())
			defer cancel()
			text, err := b.client.Metrics(ctx)
			if err != nil {
				co.observeError(b, err)
				return
			}
			b.markOK()
			fetched[i] = bm{name: b.name, text: text}
		}(i, b)
	}
	wg.Wait()

	co.WriteHead(buf)
	fmt.Fprintf(buf, "tdmcoord_backends %d\n", len(co.backends))
	fmt.Fprintf(buf, "tdmcoord_backends_live %d\n", len(co.live()))
	co.WriteAdmissions(buf)
	fmt.Fprintf(buf, "tdmcoord_cache_hits_total %d\n", co.metrics.cacheHits.Load())
	fmt.Fprintf(buf, "tdmcoord_cache_misses_total %d\n", co.metrics.cacheMisses.Load())
	size, evicted := co.cache.stats()
	fmt.Fprintf(buf, "tdmcoord_cache_entries %d\n", size)
	fmt.Fprintf(buf, "tdmcoord_cache_evictions_total %d\n", evicted)
	fmt.Fprintf(buf, "tdmcoord_retries_total %d\n", co.metrics.retries.Load())
	fmt.Fprintf(buf, "tdmcoord_corrupt_responses_total %d\n", co.metrics.corrupt.Load())
	for _, b := range co.backends {
		st := b.breakerState()
		up := 0
		if st != breakerOpen {
			up = 1
		}
		fmt.Fprintf(buf, "tdmcoord_backend_breaker{backend=%q,state=%q} 1\n", b.name, st.String())
		fmt.Fprintf(buf, "tdmcoord_backend_up{backend=%q} %d\n", b.name, up)
		fmt.Fprintf(buf, "tdmcoord_backend_failures_total{backend=%q} %d\n", b.name, b.failures.Load())
		fmt.Fprintf(buf, "tdmcoord_backend_breaker_opens_total{backend=%q} %d\n", b.name, b.opens.Load())
	}
	co.WriteOutcomes(buf)
	for _, f := range fetched {
		if f.text == "" {
			continue
		}
		injectBackendLabel(buf, f.text, f.name)
	}
}

// injectBackendLabel re-emits one backend's text exposition with a
// backend="name" label spliced into every sample line, so the aggregated
// series stay distinguishable per node. Comment lines are dropped (each
// backend repeats them) and malformed lines pass through untouched.
func injectBackendLabel(buf *bytes.Buffer, text, name string) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			fmt.Fprintln(buf, line)
			continue
		}
		metric, value := line[:sp], line[sp+1:]
		if br := strings.IndexByte(metric, '{'); br >= 0 {
			fmt.Fprintf(buf, "%s{backend=%q,%s %s\n", metric[:br], name, metric[br+1:], value)
		} else {
			fmt.Fprintf(buf, "%s{backend=%q} %s\n", metric, name, value)
		}
	}
}
