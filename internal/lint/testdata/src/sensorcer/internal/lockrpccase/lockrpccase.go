// Package lockrpccase exercises sensorlint/deepblock on direct calls into
// the RPC layer made while a mutex acquired in the same function is held.
package lockrpccase

import (
	"sync"

	"sensorcer/internal/remote"
	"sensorcer/internal/srpc"
)

var mu sync.Mutex

// UnderLock calls into the RPC layer with the mutex still held.
func UnderLock() {
	mu.Lock()
	srpc.Ping() // want `call to srpc\.Ping crosses the RPC boundary while`
	mu.Unlock()
}

// DeferredHold: a deferred unlock keeps the lock held to function end.
func DeferredHold() {
	mu.Lock()
	defer mu.Unlock()
	remote.Fetch() // want `call to remote\.Fetch crosses the RPC boundary while`
}

// Released unlocks before crossing the boundary.
func Released() {
	mu.Lock()
	mu.Unlock()
	srpc.Ping()
}

// LiteralScope: the returned literal acquired nothing itself; each
// function body is scanned as its own scope.
func LiteralScope() func() {
	mu.Lock()
	defer mu.Unlock()
	return func() {
		srpc.Ping()
	}
}

var rw sync.RWMutex

// RLockDeferredHold: a deferred RUnlock pins the read lock to function
// end; the RPC under it is flagged.
func RLockDeferredHold() {
	rw.RLock()
	defer rw.RUnlock()
	srpc.Ping() // want `call to srpc\.Ping crosses the RPC boundary while`
}

// MismatchedDeferredUnlock: defer rw.Unlock() after an RLock pins just
// the same — the scan tracks depth, not flavor.
func MismatchedDeferredUnlock() {
	rw.RLock()
	defer rw.Unlock()
	remote.Fetch() // want `call to remote\.Fetch crosses the RPC boundary while`
}

// Relocked: releasing and re-acquiring in the same function re-arms the
// check; the window between them is clean.
func Relocked() {
	mu.Lock()
	srpc.Ping() // want `call to srpc\.Ping crosses the RPC boundary while`
	mu.Unlock()
	srpc.Ping()
	mu.Lock()
	srpc.Ping() // want `call to srpc\.Ping crosses the RPC boundary while`
	mu.Unlock()
}

// DeferredAfterExplicitRelease: the deferred RPC runs at return, after
// the explicit unlock — clean. (Regression: the old scan checked
// deferred calls at their registration point, where the lock was still
// held.)
func DeferredAfterExplicitRelease() {
	mu.Lock()
	defer srpc.Ping()
	mu.Unlock()
}

// DeferredLIFOHeld: the RPC deferred after the deferred unlock runs
// before it (LIFO), with the lock still held.
func DeferredLIFOHeld() {
	mu.Lock()
	defer mu.Unlock()
	defer srpc.Ping() // want `call to srpc\.Ping crosses the RPC boundary while .* is held \(deferred: runs at return`
}

// DeferredLIFOReleased: registered before the deferred unlock, the RPC
// replays after it — clean.
func DeferredLIFOReleased() {
	defer srpc.Ping()
	mu.Lock()
	defer mu.Unlock()
}
