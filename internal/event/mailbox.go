package event

import (
	"errors"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
)

// Mailbox is the store-and-forward event service from the paper's Fig. 2:
// a client registers a leased Box, hands the Box (which implements
// Listener) to event generators, and later drains the stored events.
// Events are retained up to a capacity bound.
type Mailbox struct {
	id     ids.ServiceID
	leases *lease.Table
	cap    int

	mu    sync.Mutex
	boxes map[uint64]*Box
}

// DefaultBoxCapacity bounds stored events per box.
const DefaultBoxCapacity = 4096

// NewMailbox creates a mailbox service. capacity <= 0 selects
// DefaultBoxCapacity.
func NewMailbox(clock clockwork.Clock, policy lease.Policy, capacity int) *Mailbox {
	if capacity <= 0 {
		capacity = DefaultBoxCapacity
	}
	m := &Mailbox{
		id:     ids.NewServiceID(),
		leases: lease.NewTable(clock, policy),
		cap:    capacity,
		boxes:  make(map[uint64]*Box),
	}
	m.leases.OnEnd(m.onLeaseEnd)
	return m
}

// ID returns the mailbox service identity.
func (m *Mailbox) ID() ids.ServiceID { return m.id }

// Register creates a new leased box.
func (m *Mailbox) Register(leaseDur time.Duration) (*Box, lease.Lease) {
	lse := m.leases.Grant(leaseDur)
	b := &Box{mailbox: m, id: lse.ID, cap: m.cap}
	m.mu.Lock()
	m.boxes[lse.ID] = b
	m.mu.Unlock()
	return b, lse
}

// BoxCount reports live boxes (after sweeping expired leases).
func (m *Mailbox) BoxCount() int {
	m.leases.Sweep()
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.boxes)
}

// Sweep expires lapsed box leases.
func (m *Mailbox) Sweep() { m.leases.Sweep() }

// onLeaseEnd empties the box whose lease ended and fails its later Notify.
func (m *Mailbox) onLeaseEnd(leaseID uint64, _ lease.Reason) error {
	m.mu.Lock()
	b, ok := m.boxes[leaseID]
	if ok {
		delete(m.boxes, leaseID)
	}
	m.mu.Unlock()
	if ok {
		b.expire()
	}
	return nil
}

// ErrBoxExpired is returned by Notify after the box's lease ended, which
// signals generators to drop the registration.
var ErrBoxExpired = errors.New("event: mailbox box expired")

// Box is a store-and-forward event buffer. It implements Listener so it can
// be registered directly with any Generator.
type Box struct {
	mailbox *Mailbox
	id      uint64
	cap     int

	mu      sync.Mutex
	stored  []RemoteEvent
	dropped uint64
	// reported marks how much of dropped has been handed out by
	// DrainWithDropped, so each drain reports only the gap it observed.
	reported uint64
	expired  bool
}

// Notify implements Listener: the event is stored.
func (b *Box) Notify(ev RemoteEvent) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.expired {
		return ErrBoxExpired
	}
	if len(b.stored) >= b.cap {
		// Drop the oldest: fresh sensor data is worth more than stale.
		copy(b.stored, b.stored[1:])
		b.stored = b.stored[:len(b.stored)-1]
		b.dropped++
	}
	b.stored = append(b.stored, ev)
	return nil
}

// DrainWithDropped removes and returns up to max stored events (all if
// max <= 0) together with the number of events dropped by the capacity
// bound since the previous DrainWithDropped call. A non-zero dropped
// count means the drained sequence has a gap — the events' SeqNos jump
// by more than one where the oldest entries were discarded — and lets a
// catch-up consumer surface the loss instead of silently papering over
// it.
func (b *Box) DrainWithDropped(max int) ([]RemoteEvent, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.stored)
	if max > 0 && max < n {
		n = max
	}
	out := make([]RemoteEvent, n)
	copy(out, b.stored[:n])
	b.stored = append(b.stored[:0], b.stored[n:]...)
	gap := b.dropped - b.reported
	b.reported = b.dropped
	return out, gap
}

// Dropped reports how many events were discarded due to capacity.
func (b *Box) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

func (b *Box) expire() {
	b.mu.Lock()
	b.expired = true
	b.stored = nil
	b.mu.Unlock()
}
