package tdmroute

import "syscall"

// peakRSSBytes returns the process's peak resident set size from
// getrusage (ru_maxrss, in KiB on Linux), or 0 if the call fails, so perf
// reporting degrades gracefully instead of failing the solve.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) * 1024
}
