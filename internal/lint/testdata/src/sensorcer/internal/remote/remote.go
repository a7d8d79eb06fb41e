// Package remote is the testdata stand-in for the remote-proxy layer,
// the second package deepblock treats as the RPC boundary.
package remote

// Fetch crosses the RPC boundary.
func Fetch() {}
