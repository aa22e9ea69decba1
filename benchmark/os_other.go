//go:build !linux

package main

import "time"

// Off Linux the benchmark still builds and runs, with less to read:
// simnet.run_cpu_s and simnet.run_par are 0, and the open-loop
// generator paces on the runtime's millisecond timers.

func processCPUSeconds() float64 { return 0 }

func preciseSleep(d time.Duration) { time.Sleep(d) }
