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
	leaseDur time.Duration
	renewals *lease.RenewalManager
	mgr      *Manager

	mu         sync.Mutex
	item       registry.ServiceItem
	entries    map[ids.ServiceID]*joinEntry // registrar ID -> registration
	terminated bool
}

type joinEntry struct {
	registrar registry.Registrar
	lease     *lease.Lease
}

// JoinOption customizes a Join.
type JoinOption func(*Join)

// WithLeaseDuration sets the requested registration lease term (default 30s,
// clamped by each registrar's policy).
func WithLeaseDuration(d time.Duration) JoinOption {
	return func(j *Join) { j.leaseDur = d }
}

// NewJoin starts managing the item's registrations across all registrars
// the Manager discovers. A zero item ID is assigned here so the service has
// one identity on every registrar.
func NewJoin(clock clockwork.Clock, mgr *Manager, item registry.ServiceItem, opts ...JoinOption) *Join {
	if item.ID.IsZero() {
		item.ID = ids.NewServiceID()
	}
	j := &Join{
		clock:    clock,
		leaseDur: 30 * time.Second,
		mgr:      mgr,
		item:     item.Clone(),
		entries:  make(map[ids.ServiceID]*joinEntry),
	}
	for _, o := range opts {
		o(j)
	}
	j.renewals = lease.NewRenewalManager(clock, lease.WithRequest(j.leaseDur))
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

// RegistrarCount reports how many registrars currently hold a live
// registration for the item.
func (j *Join) RegistrarCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

func (j *Join) onDiscovered(reg registry.Registrar) {
	j.mu.Lock()
	if j.terminated || j.entries[reg.ID()] != nil {
		j.mu.Unlock()
		return
	}
	item := j.item.Clone()
	j.mu.Unlock()

	r, err := reg.Register(item, j.leaseDur)
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
	j.entries[reg.ID()] = &joinEntry{registrar: reg, lease: &l}
	j.mu.Unlock()
	j.renewals.Manage(&l)
}

func (j *Join) onDiscarded(reg registry.Registrar) {
	j.mu.Lock()
	e, ok := j.entries[reg.ID()]
	if ok {
		delete(j.entries, reg.ID())
	}
	j.mu.Unlock()
	if ok {
		j.renewals.Release(e.lease)
	}
}

// Terminate deregisters the item from every registrar (orderly departure)
// and stops lease renewal.
func (j *Join) Terminate() {
	j.mu.Lock()
	if j.terminated {
		j.mu.Unlock()
		return
	}
	j.terminated = true
	id := j.item.ID
	entries := make([]*joinEntry, 0, len(j.entries))
	for _, e := range j.entries {
		entries = append(entries, e)
	}
	j.entries = map[ids.ServiceID]*joinEntry{}
	j.mu.Unlock()

	for _, e := range entries {
		j.renewals.Release(e.lease)
		_ = e.lease.Cancel()
		_ = e.registrar.Deregister(id)
	}
	j.renewals.Stop()
}
