package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"tdmroute"
)

// stageSecondsBounds are the histogram bucket upper bounds for per-stage
// wall clocks, in seconds.
var stageSecondsBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// gtrBounds are the bucket upper bounds for the GTR_max distribution.
var gtrBounds = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// histogram is a fixed-bound cumulative histogram.
type histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; the last bucket is +Inf
	sum    float64
	n      int64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// write renders the histogram in the text exposition format: cumulative
// buckets, sum, and count. labels is the fixed label fragment without the
// le pair ("" or `stage="route",`). It renders into an in-memory buffer —
// never a socket — because callers hold the metrics mutex (mutexhold).
func (h *histogram) write(buf *bytes.Buffer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(buf, "%s_bucket{%sle=%q} %d\n", name, labels, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(buf, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	base := trimComma(labels)
	if base != "" {
		base = "{" + base + "}"
	}
	fmt.Fprintf(buf, "%s_sum%s %s\n", name, base, formatFloat(h.sum))
	fmt.Fprintf(buf, "%s_count%s %d\n", name, base, h.n)
}

func trimComma(labels string) string {
	if n := len(labels); n > 0 && labels[n-1] == ',' {
		return labels[:n-1]
	}
	return labels
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// metrics holds the server's own counters and distributions; the shared
// admission and outcome counters live in the Core. The warm-session
// counters are atomics; the histograms share one mutex.
type metrics struct {
	// Warm-session lifecycle: retained on a finished retain=1 job, evicted
	// by the capacity bound, dropped after a poisoning delta failure, and
	// conflicts (409s) from concurrent deltas on one session.
	warmRetained atomic.Int64
	warmEvicted  atomic.Int64
	warmDropped  atomic.Int64
	warmConflict atomic.Int64

	mu    sync.Mutex
	route histogram
	lr    histogram
	legal histogram
	gtr   histogram
}

func (m *metrics) init() {
	m.route = newHistogram(stageSecondsBounds)
	m.lr = newHistogram(stageSecondsBounds)
	m.legal = newHistogram(stageSecondsBounds)
	m.gtr = newHistogram(gtrBounds)
}

// observe records the stage walls and GTR of one finished job's response;
// resp is nil for jobs that produced none (failed, canceled before an
// incumbent, rejected).
func (m *metrics) observe(resp *tdmroute.Response) {
	if resp == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.route.observe(resp.Times.Route.Seconds())
	m.lr.observe(resp.Times.LR.Seconds())
	m.legal.observe(resp.Times.LegalRefine.Seconds())
	m.gtr.observe(float64(resp.Report.GTRMax))
}

// WriteMetrics renders the full exposition. The live queue and worker
// gauges reconcile with the counters: at quiescence accepted ==
// sum(outcomes) + queued + running.
func (s *Server) WriteMetrics(buf *bytes.Buffer) {
	s.mu.Lock()
	running := 0
	for _, j := range s.jobs {
		if j.jobLog().State() == StateRunning {
			running++
		}
	}
	s.mu.Unlock()
	s.WriteHead(buf)
	fmt.Fprintf(buf, "tdmroutd_workers %d\n", s.cfg.Workers)
	fmt.Fprintf(buf, "tdmroutd_queue_capacity %d\n", cap(s.queue))
	fmt.Fprintf(buf, "tdmroutd_queue_depth %d\n", len(s.queue))
	fmt.Fprintf(buf, "tdmroutd_jobs_running %d\n", running)
	s.WriteAdmissions(buf)
	m := &s.metrics
	fmt.Fprintf(buf, "tdmroutd_warm_sessions %d\n", s.warm.size())
	fmt.Fprintf(buf, "tdmroutd_warm_retained_total %d\n", m.warmRetained.Load())
	fmt.Fprintf(buf, "tdmroutd_warm_evicted_total %d\n", m.warmEvicted.Load())
	fmt.Fprintf(buf, "tdmroutd_warm_dropped_total %d\n", m.warmDropped.Load())
	fmt.Fprintf(buf, "tdmroutd_warm_conflict_total %d\n", m.warmConflict.Load())
	s.WriteOutcomes(buf)
	m.mu.Lock()
	m.route.write(buf, "tdmroutd_stage_seconds", `stage="route",`)
	m.lr.write(buf, "tdmroutd_stage_seconds", `stage="lr",`)
	m.legal.write(buf, "tdmroutd_stage_seconds", `stage="legal_refine",`)
	m.gtr.write(buf, "tdmroutd_gtr", "")
	m.mu.Unlock()
}
