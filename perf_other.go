//go:build !linux

package tdmroute

// peakRSSBytes returns 0: outside Linux the peak resident set size is not
// reported (ru_maxrss units differ by platform).
func peakRSSBytes() int64 { return 0 }
