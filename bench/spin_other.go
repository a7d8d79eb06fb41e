//go:build !amd64

package main

// pauseLoop spins n times; only amd64 has the spin-wait hint wired up.
func pauseLoop(n int) {
	for i := 0; i < n; i++ {
	}
}
