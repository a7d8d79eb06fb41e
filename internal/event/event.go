// Package event implements the Jini distributed event model used across
// sensorcer: providers fire RemoteEvents at leased listener registrations,
// and an EventMailbox service offers store-and-forward delivery for
// listeners that are disconnected or slow — the "Event Mailbox" entry in
// the paper's Fig. 2 service list. Sensor services use events to push
// reading updates and the provision monitor uses them for deployment state
// changes.
package event

import (
	"errors"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
)

// RemoteEvent is the notification unit: identified by the source service,
// an event kind (EventID) and a per-registration sequence number.
type RemoteEvent struct {
	// Source identifies the emitting service.
	Source ids.ServiceID
	// EventID names the event kind within the source (e.g. "reading
	// updated", "service provisioned").
	EventID uint64
	// SeqNo increases per registration, letting consumers detect loss.
	SeqNo uint64
	// Timestamp is the emission time at the source.
	Timestamp time.Time
	// Payload carries event-specific data.
	Payload any
}

// Listener consumes remote events. Notify errors tell the generator the
// listener is unreachable; after repeated failures a registration may be
// dropped.
type Listener interface {
	Notify(RemoteEvent) error
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(RemoteEvent) error

// Notify implements Listener.
func (f ListenerFunc) Notify(ev RemoteEvent) error { return f(ev) }

// AnyEvent as an EventID filter matches every event kind.
const AnyEvent = ^uint64(0)

const deliveryQueue = 512

// Generator manages leased listener registrations for one event source and
// fans fired events out to them asynchronously (one delivery goroutine per
// registration, in order, best-effort on overflow).
type Generator struct {
	source ids.ServiceID
	leases *lease.Table

	mu     sync.Mutex
	regs   map[uint64]*eventReg
	clock  clockwork.Clock
	closed bool
}

type eventReg struct {
	eventID  uint64
	listener Listener
	seq      ids.Sequence
	queue    chan RemoteEvent
	done     chan struct{}
	// failures counts consecutive Notify errors; the registration is
	// dropped after maxFailures.
	failures int
}

const maxFailures = 3

// NewGenerator creates an event generator for the given source identity.
func NewGenerator(source ids.ServiceID, clock clockwork.Clock, policy lease.Policy) *Generator {
	g := &Generator{
		source: source,
		clock:  clock,
		leases: lease.NewTable(clock, policy),
		regs:   make(map[uint64]*eventReg),
	}
	g.leases.OnEnd(g.onLeaseEnd)
	return g
}

// Register adds a leased listener for the event kind (AnyEvent for all).
// Cancelling the lease removes the registration.
func (g *Generator) Register(eventID uint64, l Listener, leaseDur time.Duration) (lease.Lease, error) {
	if l == nil {
		return lease.Lease{}, errors.New("event: nil listener")
	}
	lse := g.leases.Grant(leaseDur)
	r := &eventReg{
		eventID:  eventID,
		listener: l,
		queue:    make(chan RemoteEvent, deliveryQueue),
		done:     make(chan struct{}),
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.leases.Retire(lse.ID)
		return lease.Lease{}, errors.New("event: generator closed")
	}
	g.regs[lse.ID] = r
	g.mu.Unlock()
	go g.pump(lse.ID, r)
	return lse, nil
}

// Fire emits an event of the given kind to all matching registrations.
// Expired registrations are swept first.
func (g *Generator) Fire(eventID uint64, payload any) {
	g.leases.Sweep()
	now := g.clock.Now()
	g.mu.Lock()
	for _, r := range g.regs {
		if r.eventID != AnyEvent && r.eventID != eventID {
			continue
		}
		ev := RemoteEvent{
			Source:    g.source,
			EventID:   eventID,
			SeqNo:     r.seq.Next(),
			Timestamp: now,
			Payload:   payload,
		}
		select {
		case r.queue <- ev:
		default: // drop on overflow; SeqNo gap reveals the loss
		}
	}
	g.mu.Unlock()
}

// Count reports live registrations.
func (g *Generator) Count() int {
	g.leases.Sweep()
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.regs)
}

// Close shuts down all delivery pumps.
func (g *Generator) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	regs := make([]*eventReg, 0, len(g.regs))
	for _, r := range g.regs {
		regs = append(regs, r)
		close(r.queue)
	}
	g.regs = map[uint64]*eventReg{}
	g.mu.Unlock()
	for _, r := range regs {
		<-r.done
	}
}

// onLeaseEnd drops the registration whose lease ended and waits for its
// pump to exit, so a Notify must not cancel its own registration's lease.
func (g *Generator) onLeaseEnd(id uint64, _ lease.Reason) error {
	g.mu.Lock()
	r, ok := g.regs[id]
	if ok {
		delete(g.regs, id)
		close(r.queue)
	}
	g.mu.Unlock()
	if ok {
		<-r.done
	}
	return nil
}

// pump delivers queued events in order; after maxFailures consecutive
// Notify errors the registration is dropped (the listener is unreachable).
func (g *Generator) pump(id uint64, r *eventReg) {
	defer close(r.done)
	for ev := range r.queue {
		if err := r.listener.Notify(ev); err != nil {
			r.failures++
			if r.failures >= maxFailures {
				// End the lease asynchronously: its end callback waits
				// on done, so it must not run on this goroutine.
				go g.leases.Cancel(id)
				// Drain remaining events without delivery.
				for range r.queue {
				}
				return
			}
			continue
		}
		r.failures = 0
	}
}
