package subscribe

import (
	"errors"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/event"
	"sensorcer/internal/expr"
	"sensorcer/internal/lease"
	"sensorcer/internal/sensor/probe"
)

// ErrDuplicateToken rejects a Subscribe reusing a live token.
var ErrDuplicateToken = errors.New("subscribe: token already subscribed")

// ErrUnknownToken rejects a Resume for a token the hub does not hold —
// never subscribed, cancelled, or parked past its lease.
var ErrUnknownToken = errors.New("subscribe: unknown subscription token")

// ErrAlreadyAttached rejects a Resume while the subscription still has a
// live sink.
var ErrAlreadyAttached = errors.New("subscribe: subscription already attached")

// ErrHubClosed rejects operations on a closed hub.
var ErrHubClosed = errors.New("subscribe: hub closed")

// DefaultParkCapacity bounds readings stored per parked subscription.
const DefaultParkCapacity = 256

// Hub owns the subscriber registry and the fan-out: Publish offers one
// reading to every subscription's filter and sends it straight into
// every sink that can take it at once; each subscription's pump
// goroutine delivers the rest — paced, conflated, at the consumer's
// pace. Publish never blocks on any subscriber.
type Hub struct {
	clock   clockwork.Clock
	parkCap int
	// mailbox store-and-forwards readings for parked durable
	// subscriptions, with lease-bounded retention.
	mailbox *event.Mailbox

	mu     sync.RWMutex
	subs   map[string]*subscription
	closed bool

	wg sync.WaitGroup
	// flushBufs recycles the *[]Flusher scratch Publish collects into;
	// a pool because Publish runs concurrently from several sources.
	flushBufs sync.Pool
}

// HubOption configures a Hub.
type HubOption func(*Hub)

// WithHubClock injects a clock (tests).
func WithHubClock(c clockwork.Clock) HubOption {
	return func(h *Hub) { h.clock = c }
}

// WithParkCapacity bounds the stored backlog per parked subscription
// (default DefaultParkCapacity; oldest readings drop first).
func WithParkCapacity(n int) HubOption {
	return func(h *Hub) {
		if n > 0 {
			h.parkCap = n
		}
	}
}

// NewHub creates an empty subscription hub.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		clock:   clockwork.Real(),
		parkCap: DefaultParkCapacity,
		subs:    make(map[string]*subscription),
	}
	for _, o := range opts {
		o(h)
	}
	h.mailbox = event.NewMailbox(h.clock, lease.Policy{Max: lease.DefaultMax}, h.parkCap)
	h.flushBufs.New = func() any { return new([]Flusher) }
	return h
}

// subscription is one registered subscriber. Its pending map conflates
// undelivered readings latest-per-sensor; the pump goroutine drains it
// into the sink as credit allows.
type subscription struct {
	hub     *Hub
	token   string
	filter  Filter
	prog    *expr.Program
	durable bool
	ttl     time.Duration

	mu sync.Mutex
	// Exactly one of sink (attached) or box (parked durable) is non-nil;
	// both nil only transiently during resume.
	sink Sink
	// flusher is sink's optional Flusher side (nil without one), resolved
	// once at attach instead of per delivery.
	flusher  Flusher
	stop     chan struct{}
	box      *event.Box
	boxLease lease.Lease
	// pending is the conflation buffer: latest reading per sensor, with
	// order preserving first arrival.
	pending map[string]probe.Reading
	order   []string
	// dropped counts readings conflated away or lost since the last
	// delivered update.
	dropped uint64
	// lastVal is the last accepted value per sensor (min-change filter).
	lastVal map[string]float64
	seq     uint64
	// evSeq numbers readings stored while parked, so box overflow shows
	// as a SeqNo discontinuity.
	evSeq      uint64
	lastSentAt time.Time
	gone       bool
	// paced is the filter's MinInterval > 0, fixed at Subscribe: paced
	// subscriptions always deliver through the pump.
	paced bool
	// delivering serializes delivery: at most one goroutine (the pump or
	// an inline publisher) takes updates and sends them into the sink at
	// a time, so updates leave in seq order and an unsent one can be
	// requeued as if it had never been taken.
	delivering bool
	// notify (capacity 1) wakes the pump when pending gains data.
	notify chan struct{}
}

// Subscribe registers a new subscription under the caller-chosen token
// and starts pushing matching updates into sink. A durable subscription
// survives sink loss: it parks with a lease of ttl, buffering filtered
// readings for a later Resume.
func (h *Hub) Subscribe(token string, f Filter, sink Sink, durable bool, ttl time.Duration) error {
	if token == "" {
		return errors.New("subscribe: empty subscription token")
	}
	if sink == nil {
		return errors.New("subscribe: nil sink")
	}
	prog, err := filterProg(f)
	if err != nil {
		return err
	}
	s := &subscription{
		hub:     h,
		token:   token,
		filter:  f,
		prog:    prog,
		durable: durable,
		ttl:     ttl,
		paced:   f.MinInterval() > 0,
		pending: make(map[string]probe.Reading),
		lastVal: make(map[string]float64),
		notify:  make(chan struct{}, 1),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrHubClosed
	}
	if _, dup := h.subs[token]; dup {
		h.mu.Unlock()
		return ErrDuplicateToken
	}
	h.subs[token] = s
	h.mu.Unlock()
	h.attach(s, sink)
	return nil
}

// Resume reattaches a parked durable subscription: the buffered backlog
// (plus the drop count of anything the capacity bound discarded) ships
// as the first update on the new sink.
func (h *Hub) Resume(token string, sink Sink) error {
	if sink == nil {
		return errors.New("subscribe: nil sink")
	}
	h.mu.RLock()
	s := h.subs[token]
	h.mu.RUnlock()
	if s == nil {
		return ErrUnknownToken
	}
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return ErrUnknownToken
	}
	if s.box == nil {
		s.mu.Unlock()
		return ErrAlreadyAttached
	}
	box, lse := s.box, s.boxLease
	s.box = nil
	s.mu.Unlock()
	backlog, gap := box.DrainWithDropped(0)
	_ = lse.Cancel()
	s.mu.Lock()
	s.dropped += gap
	for _, ev := range backlog {
		r, ok := ev.Payload.(probe.Reading)
		if !ok {
			continue
		}
		s.mergeLocked(r)
	}
	hasPending := len(s.order) > 0
	s.mu.Unlock()
	h.attach(s, sink)
	if hasPending {
		s.signal()
	}
	return nil
}

// attach installs sink and starts its pump.
func (h *Hub) attach(s *subscription, sink Sink) {
	stop := make(chan struct{})
	s.mu.Lock()
	s.sink = sink
	s.flusher, _ = sink.(Flusher)
	s.stop = stop
	s.mu.Unlock()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s.pump(sink, stop)
	}()
}

// Detach handles sink loss (the subscriber's connection dropped): a
// durable subscription parks behind a leased store-and-forward box; an
// ephemeral one is cancelled. Idempotent.
func (h *Hub) Detach(token string) {
	h.mu.RLock()
	s := h.subs[token]
	h.mu.RUnlock()
	if s == nil {
		return
	}
	if !s.durable {
		h.remove(token)
		return
	}
	h.park(s)
}

// park moves a durable subscription from its sink to a leased box,
// migrating any pending conflated readings so nothing delivered late is
// lost.
func (h *Hub) park(s *subscription) {
	box, lse := h.mailbox.Register(s.ttl)
	s.mu.Lock()
	if s.gone || s.box != nil || s.sink == nil {
		s.mu.Unlock()
		_ = lse.Cancel()
		return
	}
	stop, sink := s.stop, s.sink
	s.stop, s.sink, s.flusher = nil, nil, nil
	s.box = box
	s.boxLease = lse
	for _, k := range s.order {
		r := s.pending[k]
		delete(s.pending, k)
		s.evSeq++
		_ = box.Notify(event.RemoteEvent{SeqNo: s.evSeq, Timestamp: r.Timestamp, Payload: r})
	}
	s.order = s.order[:0]
	s.mu.Unlock()
	close(stop)
	sink.Close(nil)
}

// Cancel removes a subscription entirely, durable or not.
func (h *Hub) Cancel(token string) { h.remove(token) }

func (h *Hub) remove(token string) {
	h.mu.Lock()
	s := h.subs[token]
	delete(h.subs, token)
	h.mu.Unlock()
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gone = true
	stop, sink := s.stop, s.sink
	box, lse := s.box, s.boxLease
	s.stop, s.sink, s.flusher, s.box = nil, nil, nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if sink != nil {
		sink.Close(nil)
	}
	if box != nil {
		_ = lse.Cancel()
	}
}

// Publish offers one reading to every subscription. It runs the filter
// chain per subscriber and, for unpaced subscriptions whose sink can
// accept immediately, the (never-blocking) send itself; everything that
// would make the publisher wait — pacing, an exhausted credit window, a
// dead sink — is handed to the subscription's pump, so a stalled or
// parked subscriber costs the publisher nothing beyond the filter
// check.
//
// The sends only queue (see Flusher), so Publish ends by flushing every
// sink it delivered to: all of this reading's frames are queued before
// the first flush, which is what makes the burst one write per
// connection — by construction, not by a timer.
func (h *Hub) Publish(r probe.Reading) {
	// Expire lapsed park leases first, so offers to dead boxes fail and
	// their subscriptions get reaped below.
	h.mailbox.Sweep()
	var expired []string
	scratch := h.flushBufs.Get().(*[]Flusher)
	flush := (*scratch)[:0]
	h.mu.RLock()
	for token, s := range h.subs {
		f, alive := s.offer(r)
		if !alive {
			expired = append(expired, token)
		}
		if f != nil {
			flush = append(flush, f)
		}
	}
	h.mu.RUnlock()
	// Flushing and reaping both happen outside the registry read lock.
	for i, f := range flush {
		f.Flush()
		flush[i] = nil
	}
	*scratch = flush
	h.flushBufs.Put(scratch)
	// Parked subscriptions whose lease lapsed are dropped.
	for _, token := range expired {
		h.remove(token)
	}
}

// Count reports live subscriptions (attached and parked).
func (h *Hub) Count() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.subs)
}

// Close cancels every subscription and waits for the pumps to exit.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	tokens := make([]string, 0, len(h.subs))
	for token := range h.subs {
		tokens = append(tokens, token)
	}
	h.mu.Unlock()
	for _, token := range tokens {
		h.remove(token)
	}
	h.wg.Wait()
}

// offer runs the filter chain and routes an accepted reading: into the
// sink, the conflation buffer (attached) or the parked box. alive is
// false when the subscription is dead (parked lease expired) so Publish
// can reap it; flush is the sink's Flusher when this offer sent into it.
//
// An attached, unpaced subscription whose sink is idle is delivered
// inline on the publisher's goroutine: TrySend never blocks, so the
// publisher pays an encode and a buffer append instead of waking the
// pump — at fan-out scale that removes a goroutine handoff per
// subscriber per reading. With nothing pending, which is the steady
// state, the reading does not visit the conflation buffer at all: the
// update is built around it right here. The pump keeps everything the
// inline path declines: pacing, credit waits, and teardown.
func (s *subscription) offer(r probe.Reading) (flush Flusher, alive bool) {
	s.mu.Lock()
	if s.gone {
		s.mu.Unlock()
		return nil, false
	}
	last, have := s.lastVal[r.Sensor]
	if !matches(s.filter, s.prog, r, last, have) {
		s.mu.Unlock()
		return nil, true
	}
	s.lastVal[r.Sensor] = r.Value
	if s.box != nil {
		s.evSeq++
		err := s.box.Notify(event.RemoteEvent{SeqNo: s.evSeq, Timestamp: r.Timestamp, Payload: r})
		if err != nil {
			// The park lease expired underneath us.
			s.gone = true
			s.mu.Unlock()
			return nil, false
		}
		s.mu.Unlock()
		return nil, true
	}
	sink := s.sink
	if s.paced || s.delivering || sink == nil {
		// Paced, mid-resume, or a deliverer is active — it rechecks
		// pending before standing down, so the merge is covered.
		s.mergeLocked(r)
		if !s.delivering {
			s.signal()
		}
		s.mu.Unlock()
		return nil, true
	}
	s.delivering = true
	var u *Update
	if len(s.order) == 0 {
		su := &singleUpdate{one: [1]probe.Reading{r}}
		su.Update = s.stampLocked(su.one[:])
		u = &su.Update
	} else {
		// Something is waiting for the pump (a resume backlog, a requeued
		// snapshot): join it, so order and conflation hold.
		s.mergeLocked(r)
		u = s.takeLocked()
	}
	flusher := s.flusher
	s.mu.Unlock()
	if !s.deliverInline(sink, u) {
		return nil, true
	}
	return flusher, true
}

// singleUpdate is an Update and the one reading it carries, in one
// allocation.
type singleUpdate struct {
	Update
	one [1]probe.Reading
}

// deliverInline sends u, then whatever became pending meanwhile, on the
// publisher's goroutine while the sends stay trivially cheap; it
// reports whether the sink accepted anything. The moment a send cannot
// complete immediately — no credit, sink closed — it stands down and
// hands the subscription to the pump, which owns waiting and teardown.
//
//lint:blockok TrySend is contractually non-blocking (a credit check and a buffer append; an exhausted window returns ErrSinkBlocked instead of waiting), so the publisher holding Hub.mu is never coupled to a subscriber's progress
func (s *subscription) deliverInline(sink Sink, u *Update) (sent bool) {
	for {
		if err := sink.TrySend(u); err != nil {
			if errors.Is(err, ErrSinkBlocked) {
				s.requeue(u)
			}
			s.release()
			s.signal()
			return sent
		}
		sent = true
		if u = s.takeOrRelease(); u == nil {
			return true
		}
	}
}

// takeOrRelease takes the next update, or — with nothing pending —
// clears the delivering flag under the same lock, so no offer can merge
// between the deliverer's last look and its standing down.
func (s *subscription) takeOrRelease() *Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		s.delivering = false
		return nil
	}
	return s.takeLocked()
}

// release clears the delivering flag, re-signalling the pump if an
// offer merged new pending after the deliverer's last take — that offer
// saw the flag and skipped its own wakeup.
func (s *subscription) release() {
	s.mu.Lock()
	s.delivering = false
	stranded := len(s.order) > 0
	s.mu.Unlock()
	if stranded {
		s.signal()
	}
}

// mergeLocked conflates r into pending: latest value wins per sensor,
// and a superseded reading counts as dropped.
func (s *subscription) mergeLocked(r probe.Reading) {
	if _, exists := s.pending[r.Sensor]; exists {
		s.dropped++
	} else {
		s.order = append(s.order, r.Sensor)
	}
	s.pending[r.Sensor] = r
}

func (s *subscription) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// pump is the per-subscription delivery goroutine: woken by offer, it
// drains the conflation buffer into the sink, pacing to the filter's
// min-interval and parking on the sink's Ready channel when credit runs
// out. It exits when the attachment stops (park or cancel) or the sink
// reports its consumer gone.
func (s *subscription) pump(sink Sink, stop <-chan struct{}) {
	for {
		select {
		case <-s.notify:
		case <-stop:
			return
		case <-sink.Done():
			s.hub.Detach(s.token)
			return
		}
		if !s.acquire() {
			// An inline deliverer is active; it re-signals on stand-down
			// if anything is left for the pump.
			continue
		}
		ok := s.deliver(sink, stop)
		s.release()
		if !ok {
			return
		}
	}
}

// acquire takes the delivering flag, failing if a deliverer is active.
func (s *subscription) acquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delivering {
		return false
	}
	s.delivering = true
	return true
}

// deliver drains pending into the sink; false means the pump must exit.
func (s *subscription) deliver(sink Sink, stop <-chan struct{}) bool {
	clock := s.hub.clock
	// Pacing bookkeeping (two clock reads per delivery) is only worth
	// paying when the filter actually asks for it; the unpaced fan-out
	// path stays clock-free.
	paced := s.paced
	for {
		// Pace before taking, so readings landing inside the min-interval
		// window conflate instead of queueing.
		if d := s.paceDelay(paced, clock); d > 0 {
			timer := clock.NewTimer(d)
			select {
			case <-timer.C():
			case <-stop:
				timer.Stop()
				return false
			case <-sink.Done():
				timer.Stop()
				s.hub.Detach(s.token)
				return false
			}
		}
		u, ok := s.take()
		if !ok {
			return true
		}
		err := sink.TrySend(u)
		switch {
		case err == nil:
			if paced {
				s.sent(clock.Now())
			}
		case errors.Is(err, ErrSinkBlocked):
			// Put the snapshot back (newer arrivals win) and wait for
			// credit; conflation continues in pending meanwhile.
			s.requeue(u)
			select {
			case <-sink.Ready():
			case <-stop:
				return false
			case <-sink.Done():
				s.hub.Detach(s.token)
				return false
			}
		default:
			// Closed or broken sink: treat as a disconnect.
			s.hub.Detach(s.token)
			return false
		}
	}
}

// take drains pending into one Update (false when empty).
func (s *subscription) take() (*Update, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return nil, false
	}
	return s.takeLocked(), true
}

// takeLocked drains a non-empty pending into one Update.
func (s *subscription) takeLocked() *Update {
	readings := make([]probe.Reading, 0, len(s.order))
	for _, k := range s.order {
		readings = append(readings, s.pending[k])
		delete(s.pending, k)
	}
	s.order = s.order[:0]
	u := s.stampLocked(readings)
	return &u
}

// stampLocked makes readings the subscription's next update: the next
// SeqNo, and the drops accrued since the previous one. requeue is its
// inverse.
func (s *subscription) stampLocked(readings []probe.Reading) Update {
	s.seq++
	u := Update{SeqNo: s.seq, Dropped: s.dropped, Readings: readings}
	s.dropped = 0
	return u
}

// requeue returns an undeliverable update to pending, as if it had never
// been taken. A sensor that gained a newer reading while the update was
// out keeps the newer one; the update's copy counts as dropped. Unwinding
// seq is safe because the caller — the pump or an inline publisher —
// holds the delivering flag: no other update was taken, let alone sent,
// since this one, so u.SeqNo is still the latest.
func (s *subscription) requeue(u *Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq--
	s.dropped += u.Dropped
	restored := make([]string, 0, len(u.Readings))
	for _, r := range u.Readings {
		if _, exists := s.pending[r.Sensor]; exists {
			s.dropped++
			continue
		}
		s.pending[r.Sensor] = r
		restored = append(restored, r.Sensor)
	}
	s.order = append(restored, s.order...)
}

func (s *subscription) paceDelay(paced bool, clock clockwork.Clock) time.Duration {
	if !paced {
		return 0
	}
	min := s.filter.MinInterval()
	s.mu.Lock()
	last := s.lastSentAt
	s.mu.Unlock()
	if last.IsZero() {
		return 0
	}
	if elapsed := clock.Now().Sub(last); elapsed < min {
		return min - elapsed
	}
	return 0
}

func (s *subscription) sent(now time.Time) {
	s.mu.Lock()
	s.lastSentAt = now
	s.mu.Unlock()
}
