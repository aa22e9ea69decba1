//go:build !linux || (!amd64 && !arm64)

package netctl

import "net"

// newUDPBatchIO has no batched implementation off Linux amd64/arm64;
// the server falls back to the portable single-message path.
func newUDPBatchIO(*net.UDPConn, bool, *traffic) batchIO { return nil }

// wireAddr is the identity off Linux: addresses are already the types
// conn.WriteTo expects.
func wireAddr(a net.Addr) net.Addr { return a }
