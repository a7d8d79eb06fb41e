package discovery

import (
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
)

// Join keeps one service item registered on every discovered lookup
// service and its registration leases renewed — the Jini JoinManager. A
// provider constructs a Join at startup and the service is thereafter
// visible network-wide until Terminate (orderly departure) or process
// death (leases lapse and the registrars sweep it — the paper's crash
// semantics).
type Join struct {
	clock    clockwork.Clock
	renewals *lease.RenewalManager
	mgr      *Manager

	mu         sync.Mutex
	item       registry.ServiceItem
	leases     map[ids.ServiceID]*lease.Lease // registrar ID -> registration lease
	terminated bool
}

// joinLeaseDuration is the registration lease term a Join requests, clamped
// by each registrar's policy.
const joinLeaseDuration = 30 * time.Second

// NewJoin starts managing the item's registrations across all registrars
// the Manager discovers. A zero item ID is assigned here so the service has
// one identity on every registrar.
func NewJoin(clock clockwork.Clock, mgr *Manager, item registry.ServiceItem) *Join {
	if item.ID.IsZero() {
		item.ID = ids.NewServiceID()
	}
	j := &Join{
		clock:  clock,
		mgr:    mgr,
		item:   item.Clone(),
		leases: make(map[ids.ServiceID]*lease.Lease),
	}
	j.renewals = lease.NewRenewalManager(clock, lease.WithRequest(joinLeaseDuration))
	mgr.OnDiscovered(j.onDiscovered)
	mgr.OnDiscarded(j.onDiscarded)
	return j
}

// ServiceID returns the item's network-wide identity.
func (j *Join) ServiceID() ids.ServiceID {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.item.ID
}

func (j *Join) onDiscovered(reg registry.Registrar) {
	j.mu.Lock()
	if j.terminated || j.leases[reg.ID()] != nil {
		j.mu.Unlock()
		return
	}
	item := j.item.Clone()
	j.mu.Unlock()

	r, err := reg.Register(item, joinLeaseDuration)
	if err != nil {
		return
	}
	l := r.Lease

	j.mu.Lock()
	if j.terminated {
		j.mu.Unlock()
		_ = l.Cancel()
		return
	}
	j.leases[reg.ID()] = &l
	j.mu.Unlock()
	j.renewals.Manage(&l)
}

func (j *Join) onDiscarded(reg registry.Registrar) {
	j.mu.Lock()
	l, ok := j.leases[reg.ID()]
	if ok {
		delete(j.leases, reg.ID())
	}
	j.mu.Unlock()
	if ok {
		j.renewals.Release(l)
	}
}

// Terminate deregisters the item from every registrar (orderly departure)
// by cancelling its registration leases, and stops lease renewal.
func (j *Join) Terminate() {
	j.mu.Lock()
	if j.terminated {
		j.mu.Unlock()
		return
	}
	j.terminated = true
	leases := make([]*lease.Lease, 0, len(j.leases))
	for _, l := range j.leases {
		leases = append(leases, l)
	}
	j.leases = map[ids.ServiceID]*lease.Lease{}
	j.mu.Unlock()

	for _, l := range leases {
		j.renewals.Release(l)
		_ = l.Cancel()
	}
	j.renewals.Stop()
}
