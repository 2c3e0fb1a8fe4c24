package tdmroute

import (
	"runtime/metrics"
	"time"
)

// Perf is the stable performance block of the schema-2 Response wire format:
// per-stage wall seconds plus the process-level counters the benchmark
// harness aggregates. It is filled by Run for every mode; fields that a
// platform cannot observe (PeakRSSBytes outside Linux) are zero rather than
// omitted, so rows stay column-stable.
type Perf struct {
	// RouteSec, LRSec, LegalRefineSec are the per-stage wall times in
	// seconds (the Fig. 3(a) breakdown); TotalSec is their sum.
	RouteSec       float64
	LRSec          float64
	LegalRefineSec float64
	TotalSec       float64
	// PeakRSSBytes is the process's peak resident set size when the solve
	// finished (getrusage ru_maxrss), or 0 when the platform does not
	// expose it. It is a process-lifetime high-water mark, not a
	// per-request delta.
	PeakRSSBytes int64
	// Allocs is the number of heap objects allocated during the solve
	// (the runtime/metrics heap allocation count, delta across Run).
	Allocs uint64
	// RippedNets and RevertedRounds mirror the routing-stage counters
	// (RouteStats) so perf consumers need only this block.
	RippedNets     int
	RevertedRounds int
	// LRIterations is the number of Lagrangian-relaxation iterations run.
	LRIterations int
}

// perfFromTimes fills the wall-clock part of a Perf from stage times.
func perfFromTimes(t StageTimes) Perf {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	return Perf{
		RouteSec:       sec(t.Route),
		LRSec:          sec(t.LR),
		LegalRefineSec: sec(t.LegalRefine),
		TotalSec:       sec(t.Total()),
	}
}

// heapAllocs returns the number of heap objects allocated by the process
// so far, tiny-allocator objects included (the count MemStats.Mallocs
// reports). Unlike runtime.ReadMemStats it does not stop the world, so
// reading it around every solve does not stall a busy server's other
// goroutines.
func heapAllocs() uint64 {
	s := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s[:])
	var n uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			n += x.Value.Uint64()
		}
	}
	return n
}
