//go:build !linux || (!amd64 && !arm64)

package netctl

import "testing"

// kernelCoalesces is false off Linux amd64/arm64: the portable path
// moves one datagram per call.
func kernelCoalesces(*testing.T) bool { return false }
