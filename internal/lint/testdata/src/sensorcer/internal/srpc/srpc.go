// Package srpc is the testdata stand-in for the RPC client layer; calls
// into it are what the deepblock analyzer treats as crossing the boundary.
package srpc

// Ping crosses the RPC boundary.
func Ping() {}
