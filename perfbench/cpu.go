package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark reports processor time rather than wall time. On a shared
// virtual machine the wall time of the same work moves with how much of the
// host the neighbours take, while the kernel charges a task only for the
// time it ran (steal time excluded), which is the program's cost.

// selfCPU returns the processor time, user plus system, that this process
// has used so far, summed over its threads.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return rusageCPU(&ru)
}

// threadCPU returns the processor time the calling thread has used so far.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1 /* RUSAGE_THREAD */, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_THREAD
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the times in /proc/<pid>/stat (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// runningCPU returns the processor time a running process has used so far,
// to the clock tick, from /proc/<pid>/stat.
func runningCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may hold spaces;
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}
