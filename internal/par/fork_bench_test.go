//go:build linux

package par

import (
	"math"
	"syscall"
	"testing"
	"time"
)

// processCPU returns the user plus system time the whole process has used,
// summed over its threads, so it also charges the runtime's spinning and
// wake-up work that a fork-join causes on other threads.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkForkJoin measures what the grain amortizes: the process CPU of
// one empty 2-chunk loop when its chunks fork onto goroutines, next to the
// same loop run inline. The gap variant puts 50 µs of serial work between
// loops, as the routing waves and LR sweeps do, so the idle processors
// park between fork-joins and each fork pays their wake-up too; its
// cpu-ns/op subtracts the serial work measured on its own.
func BenchmarkForkJoin(b *testing.B) {
	empty := func(chunk, start, end int) {}
	for _, bc := range []struct {
		name string
		work int
		gap  time.Duration
	}{
		{"inline", 0, 0},
		{"fork", math.MaxInt, 0},
		{"fork-gap50us", math.MaxInt, 50 * time.Microsecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			gapCPU := time.Duration(0)
			if bc.gap > 0 {
				c0 := processCPU(b)
				for i := 0; i < b.N; i++ {
					spin(bc.gap)
				}
				gapCPU = processCPU(b) - c0
			}
			b.ResetTimer()
			c0 := processCPU(b)
			for i := 0; i < b.N; i++ {
				if bc.gap > 0 {
					spin(bc.gap)
				}
				ForMin(2, 2, 1, bc.work, empty)
			}
			cpu := processCPU(b) - c0 - gapCPU
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
		})
	}
}

// spin busy-waits for d on the calling goroutine without yielding, standing
// in for the serial work between two parallel loops.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}
