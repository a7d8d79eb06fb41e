package lease

import (
	"errors"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
)

// renewAt is the fraction of a lease's term after which the manager renews
// it: at half-life, so a renewal slowed by its grantor still has half the
// term to land before the lease lapses.
const renewAt = 0.5

// RenewalManager keeps a set of leases alive by renewing each one when
// renewAt of its term has elapsed. It is the in-process analogue of the
// Jini Lease Renewal Service that appears in the paper's Fig. 2 service
// list: providers hand their registration leases to the manager and forget
// about them. A renewal is a single attempt; a lease whose renewal fails
// is dropped and reported, and the service leaves the network when the
// lease lapses.
type RenewalManager struct {
	clock clockwork.Clock
	// request is the duration asked for on each renewal.
	request time.Duration

	mu sync.Mutex
	// leases maps each managed lease to its renew deadline: the instant
	// at which renewAt of the term (measured when the lease was added or
	// last renewed) has elapsed.
	leases  map[*Lease]time.Time
	stopped bool
	wake    chan struct{}
	done    chan struct{}

	onFailure func(l *Lease, err error)
}

// RenewalOption customizes a RenewalManager.
type RenewalOption func(*RenewalManager)

// WithRequest sets the duration requested on each renewal. Default Forever
// (the grantor clamps to its policy max).
func WithRequest(d time.Duration) RenewalOption {
	return func(m *RenewalManager) { m.request = d }
}

// WithFailureHandler installs a callback invoked when a renewal fails; the
// lease is dropped from management first. By default failures are silent
// (the service simply leaves the network, per the paper's semantics).
func WithFailureHandler(fn func(l *Lease, err error)) RenewalOption {
	return func(m *RenewalManager) { m.onFailure = fn }
}

// NewRenewalManager starts the renewal loop. Call Stop to shut it down.
func NewRenewalManager(clock clockwork.Clock, opts ...RenewalOption) *RenewalManager {
	m := &RenewalManager{
		clock:   clock,
		request: Forever,
		leases:  make(map[*Lease]time.Time),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	for _, o := range opts {
		o(m)
	}
	go m.loop()
	return m
}

// Manage adds a lease to the renewal set.
func (m *RenewalManager) Manage(l *Lease) {
	m.mu.Lock()
	if !m.stopped {
		m.leases[l] = m.renewDeadline(l, m.clock.Now())
	}
	m.mu.Unlock()
	m.kick()
}

// renewDeadline computes when to next renew l, given the current time.
func (m *RenewalManager) renewDeadline(l *Lease, now time.Time) time.Time {
	term := l.Expiration.Sub(now)
	if term < 0 {
		term = 0
	}
	return now.Add(time.Duration(float64(term) * renewAt))
}

// Release removes a lease from management without cancelling it.
func (m *RenewalManager) Release(l *Lease) {
	m.mu.Lock()
	delete(m.leases, l)
	m.mu.Unlock()
	m.kick()
}

// Count reports the number of managed leases.
func (m *RenewalManager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.leases)
}

// Stop halts the renewal loop. Managed leases are left to expire naturally;
// call Cancel on them first for an orderly departure.
func (m *RenewalManager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	m.kick()
	<-m.done
}

func (m *RenewalManager) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// loop renews each lease once renewAt of its term has elapsed, sleeping
// until the earliest pending renewal point.
func (m *RenewalManager) loop() {
	defer close(m.done)
	const idlePoll = time.Second
	for {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		now := m.clock.Now()
		var due, lapsed []*Lease
		nextWake := now.Add(idlePoll)
		for l, deadline := range m.leases {
			if l.Expired(now) {
				// Already lapsed; drop it and report below.
				delete(m.leases, l)
				lapsed = append(lapsed, l)
				continue
			}
			if !now.Before(deadline) {
				due = append(due, l)
			} else if deadline.Before(nextWake) {
				nextWake = deadline
			}
		}
		onFailure := m.onFailure
		m.mu.Unlock()

		if onFailure != nil {
			for _, l := range lapsed {
				onFailure(l, ErrUnknownLease)
			}
		}
		for _, l := range due {
			err := l.Renew(m.request)
			m.mu.Lock()
			if err != nil {
				delete(m.leases, l)
			} else if _, still := m.leases[l]; still {
				m.leases[l] = m.renewDeadline(l, m.clock.Now())
			}
			m.mu.Unlock()
			// A canceled lease left deliberately; only organic failures
			// are worth reporting.
			if err != nil && onFailure != nil && !errors.Is(err, ErrCanceled) {
				onFailure(l, err)
			}
		}
		if len(due) > 0 {
			// Deadlines changed; rescan before sleeping so the fresh
			// renew points are taken into account.
			continue
		}

		sleep := nextWake.Sub(m.clock.Now())
		if sleep < time.Millisecond {
			sleep = time.Millisecond
		}
		timer := m.clock.NewTimer(sleep)
		select {
		case <-timer.C():
		case <-m.wake:
			timer.Stop()
		}
	}
}
