package main

import (
	"syscall"
	"time"
)

// processCPUSeconds is the user+system CPU time the process has used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// preciseSleep blocks the calling thread in nanosleep, which the kernel
// wakes from a high-resolution timer; time.Sleep on a mostly idle
// process wakes from the netpoller, whose timeout is in milliseconds.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake only dispatches nothing
}
