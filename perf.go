package tdmroute

import "runtime/metrics"

// Perf holds the process-level counters that only Run can observe around a
// solve. The stage walls live in Response.Times and the work counters in
// Response.RouteStats and Response.Report; the schema-2 "perf" wire block
// derives its remaining keys from those. Counters a platform cannot observe
// (PeakRSSBytes outside Linux) are zero rather than omitted, so rows stay
// column-stable.
type Perf struct {
	// PeakRSSBytes is the process's peak resident set size when the solve
	// finished (getrusage ru_maxrss), or 0 when the platform does not
	// expose it. It is a process-lifetime high-water mark, not a
	// per-request delta.
	PeakRSSBytes int64
	// Allocs is the number of heap objects allocated during the solve
	// (the runtime/metrics heap allocation count, delta across Run).
	Allocs uint64
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
