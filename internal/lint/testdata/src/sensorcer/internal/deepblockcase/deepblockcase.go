// Package deepblockcase exercises sensorlint/deepblock: call paths that
// reach an RPC boundary, an fsync or a channel park while a mutex is
// held, one or more calls deep. Direct RPC-under-lock is exercised by
// the lockrpccase package.
package deepblockcase

import (
	"os"
	"sync"

	"sensorcer/internal/srpc"
)

var mu sync.Mutex

// file is a handle the fsync scenarios sync; never opened here.
var file *os.File

var ch = make(chan int)

// callRPC is the hop deepblock must see through.
func callRPC() {
	srpc.Ping()
}

// TransitiveRPC reaches the RPC boundary one call deep with mu held.
func TransitiveRPC() {
	mu.Lock()
	callRPC() // want `call to deepblockcase\.callRPC crosses the RPC boundary while deepblockcase\.mu is held`
	mu.Unlock()
}

// syncFile is the hop carrying the fsync fact.
func syncFile() {
	_ = file.Sync()
}

// TransitiveFsync forces the disk one call deep with mu held.
func TransitiveFsync() {
	mu.Lock()
	syncFile() // want `call to deepblockcase\.syncFile forces an fsync while deepblockcase\.mu is held`
	mu.Unlock()
}

// DirectFsync syncs with the lock held — the direct-leaf case.
func DirectFsync() {
	mu.Lock()
	_ = file.Sync() // want `fsync via .*Sync while deepblockcase\.mu is held`
	mu.Unlock()
}

// DirectPark sends on an unbuffered channel with mu held.
func DirectPark() {
	mu.Lock()
	ch <- 1 // want `sends on a channel while deepblockcase\.mu is held`
	mu.Unlock()
}

// waitSignal is the hop carrying the park fact.
func waitSignal() {
	<-ch
}

// TransitivePark parks one call deep with mu held.
func TransitivePark() {
	mu.Lock()
	waitSignal() // want `call to deepblockcase\.waitSignal can park on a channel while deepblockcase\.mu is held`
	mu.Unlock()
}

// ReleasedFirst drops the lock before the hazardous hop: clean.
func ReleasedFirst() {
	mu.Lock()
	mu.Unlock()
	callRPC()
	syncFile()
	waitSignal()
}

// Shipper is dynamic dispatch the analyzer must widen to implementers.
type Shipper interface {
	// Ship moves data somewhere.
	Ship()
}

// RemoteShipper crosses the RPC boundary.
type RemoteShipper struct{}

// Ship crosses the boundary.
func (RemoteShipper) Ship() { srpc.Ping() }

// LocalShipper stays local.
type LocalShipper struct{}

// Ship does nothing.
func (LocalShipper) Ship() {}

// IfaceDispatch widens s.Ship() to every implementer; RemoteShipper's
// Ship reaches the RPC boundary.
func IfaceDispatch(s Shipper) {
	mu.Lock()
	s.Ship() // want `call to deepblockcase\.Shipper\.Ship crosses the RPC boundary while deepblockcase\.mu is held`
	mu.Unlock()
}

// pingLayer and pongLayer are mutually recursive; the RPC fact must flow
// around the strongly connected component.
func pingLayer(depth int) {
	if depth == 0 {
		srpc.Ping()
		return
	}
	pongLayer(depth - 1)
}

// pongLayer bounces back to pingLayer.
func pongLayer(depth int) {
	pingLayer(depth)
}

// MutualRecursion sees the hazard through the SCC summary.
func MutualRecursion() {
	mu.Lock()
	pongLayer(3) // want `call to deepblockcase\.pongLayer crosses the RPC boundary while deepblockcase\.mu is held`
	mu.Unlock()
}

// blessedSync is designed-in blocking: the declaration blessing silences
// findings inside it and stops the fact from propagating to callers.
//
//lint:blockok scenario: the fsync under the lock is the design
func blessedSync() {
	_ = file.Sync()
}

// BlessedCaller calls a blockok function under the lock: clean.
func BlessedCaller() {
	mu.Lock()
	blessedSync()
	mu.Unlock()
}

// Journal is an interface whose blocking method is blessed at the
// interface: dispatch through it is trusted wherever it lands.
type Journal interface {
	// Append is designed-in blocking.
	//
	//lint:blockok scenario: journal-before-ack is the contract
	Append()
}

// ParkingJournal parks in Append; the blessing on the interface method
// covers the dispatch below.
type ParkingJournal struct{}

// Append parks.
func (ParkingJournal) Append() { <-ch }

// JournalCaller dispatches through the blessed method under the lock:
// clean.
func JournalCaller(j Journal) {
	mu.Lock()
	j.Append()
	mu.Unlock()
}

// DeferredHazard: the deferred helper runs at return, before the
// deferred unlock (LIFO), so the lock is still held.
func DeferredHazard() {
	mu.Lock()
	defer mu.Unlock()
	defer syncFile() // want `call to deepblockcase\.syncFile forces an fsync while deepblockcase\.mu is held \(deferred`
}

// GoStatement starts its own goroutine: the new stack holds nothing.
func GoStatement() {
	mu.Lock()
	//lint:ignore sensorlint/goroleak scenario: the goroutine exits after one send attempt
	go callRPC()
	mu.Unlock()
}

// DeferredLIFOReleasedDeep: registered before the deferred unlock, the
// deferred helper replays after it — should be clean.
func DeferredLIFOReleasedDeep() {
	defer syncFile()
	mu.Lock()
	defer mu.Unlock()
}
