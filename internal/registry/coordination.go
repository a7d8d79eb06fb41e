// Coordination leases: the lookup service doubles as the rendezvous
// point for single-holder control-plane roles. A replicated space's
// coordinator replicas can already reach the registry (every federation
// peer discovers through it), so hosting the coordination lease here gives
// them leader election with fencing tokens without introducing a new
// service: whoever wins AcquireCoordination is the coordinator until it
// stops renewing, and the token it won fences every decision it makes.
package registry

import (
	"time"

	"sensorcer/internal/lease"
)

// CoordGrantor is the coordination-lease surface coordinator replicas
// compete through — implemented by LookupService locally and by the srpc
// coordination client for separate-process replicas.
type CoordGrantor interface {
	// AcquireCoordination claims the named single-holder role. It fails
	// with lease.ErrHeld while another holder's grant is live; a win
	// returns a renewable lease plus a fencing token strictly greater
	// than every earlier holder's.
	AcquireCoordination(name, holder string, dur time.Duration) (lease.FencedGrant, error)
	// CoordinationHolder reports the live holder and token of the named
	// role, if any.
	CoordinationHolder(name string) (holder string, token uint64, ok bool)
}

// coordTable lazily creates the fenced ledger (old deployments never pay
// for it).
func (l *LookupService) coordTable() *lease.FencedTable {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.coord == nil {
		l.coord = lease.NewFencedTable(l.clock, l.coordPolicy)
	}
	return l.coord
}

// AcquireCoordination implements CoordGrantor on the lookup service.
func (l *LookupService) AcquireCoordination(name, holder string, dur time.Duration) (lease.FencedGrant, error) {
	return l.coordTable().Acquire(name, holder, dur)
}

// CoordinationHolder implements CoordGrantor on the lookup service.
func (l *LookupService) CoordinationHolder(name string) (string, uint64, bool) {
	return l.coordTable().Holder(name)
}

// RenewCoordination extends the identified coordination grant — the
// by-id surface the remote protocol renews through. A deposed holder's
// id fails with lease.ErrUnknownLease.
func (l *LookupService) RenewCoordination(id uint64, d time.Duration) (time.Time, error) {
	return l.coordTable().Renew(id, d)
}

// CancelCoordination abdicates the identified coordination grant.
func (l *LookupService) CancelCoordination(id uint64) error {
	return l.coordTable().Cancel(id)
}

var _ CoordGrantor = (*LookupService)(nil)
