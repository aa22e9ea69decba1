// Package profile is the -cpuprofile/-memprofile harness the commands
// share.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a pprof CPU profile into the file cpu (when non-empty) and
// returns the function that ends it and then writes a heap profile to the
// file mem (when non-empty). os.Exit skips defers, so a command that
// leaves that way must call stop on every exit path once Start has
// returned. stop reports its own failures on stderr under prefix: by then
// the run is over and its result stands.
func Start(prefix, cpu, mem string) (stop func(), err error) {
	var f *os.File
	if cpu != "" {
		if f, err = os.Create(cpu); err != nil {
			return nil, fmt.Errorf("create -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close() //nolint:errcheck // nothing was written
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	return func() {
		if f != nil {
			pprof.StopCPUProfile()
			f.Close() //nolint:errcheck // profile already flushed
		}
		if mem != "" {
			mf, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%screate -memprofile: %v\n", prefix, err)
				return
			}
			defer mf.Close() //nolint:errcheck // best-effort teardown
			runtime.GC()     // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "%swrite heap profile: %v\n", prefix, err)
			}
		}
	}, nil
}
