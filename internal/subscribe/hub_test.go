package subscribe

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/expr"
	"sensorcer/internal/sensor/probe"
)

// testSink is an in-process Sink with an explicit credit window, mirroring
// the srpc stream contract.
type testSink struct {
	mu      sync.Mutex
	updates []*Update
	credit  int
	closed  bool
	err     error
	ready   chan struct{}
	done    chan struct{}
	// delivered signals each accepted update (capacity-buffered).
	delivered chan *Update
}

func newTestSink(credit int) *testSink {
	return &testSink{
		credit:    credit,
		ready:     make(chan struct{}, 1),
		done:      make(chan struct{}),
		delivered: make(chan *Update, 1024),
	}
}

func (k *testSink) TrySend(u *Update) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return ErrSinkClosed
	}
	if k.credit <= 0 {
		return ErrSinkBlocked
	}
	k.credit--
	// Record a copy: the Sink contract lets the hub reuse u and
	// u.Readings once TrySend returns.
	c := &Update{SeqNo: u.SeqNo, Dropped: u.Dropped, Readings: append([]probe.Reading(nil), u.Readings...)}
	k.updates = append(k.updates, c)
	select {
	case k.delivered <- c:
	default:
	}
	return nil
}

func (k *testSink) grant(n int) {
	k.mu.Lock()
	k.credit += n
	k.mu.Unlock()
	select {
	case k.ready <- struct{}{}:
	default:
	}
}

func (k *testSink) Ready() <-chan struct{} { return k.ready }
func (k *testSink) Done() <-chan struct{}  { return k.done }

func (k *testSink) Close(err error) {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return
	}
	k.closed = true
	k.err = err
	k.mu.Unlock()
	close(k.done)
}

func (k *testSink) all() []*Update {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Update, len(k.updates))
	copy(out, k.updates)
	return out
}

func (k *testSink) recv(t *testing.T, timeout time.Duration) *Update {
	t.Helper()
	select {
	case u := <-k.delivered:
		return u
	case <-time.After(timeout):
		t.Fatal("timed out waiting for an update")
		return nil
	}
}

func reading(sensor string, v float64) probe.Reading {
	return probe.Reading{Sensor: sensor, Kind: "temperature", Unit: "celsius", Value: v, Timestamp: time.Unix(1700000000, 0)}
}

func TestHubDelivers(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(100)
	if err := h.Subscribe("tok", Filter{}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 21.5))
	u := sink.recv(t, 2*time.Second)
	if len(u.Readings) != 1 || u.Readings[0].Sensor != "rtd-1" || u.Readings[0].Value != 21.5 {
		t.Fatalf("update = %+v", u)
	}
	if u.SeqNo != 1 || u.Dropped != 0 {
		t.Fatalf("seq/dropped = %d/%d", u.SeqNo, u.Dropped)
	}
}

func TestHubSensorAndExprFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(100)
	err := h.Subscribe("tok", Filter{Sensors: []string{"rtd-1"}, Expr: "value > 20"}, sink, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-2", 99)) // wrong sensor
	h.Publish(reading("rtd-1", 10)) // fails predicate
	h.Publish(reading("rtd-1", 25)) // passes
	u := sink.recv(t, 2*time.Second)
	if len(u.Readings) != 1 || u.Readings[0].Value != 25 {
		t.Fatalf("update = %+v", u)
	}
}

func TestHubBadExprRejected(t *testing.T) {
	h := NewHub()
	defer h.Close()
	if err := h.Subscribe("tok", Filter{Expr: "value >"}, newTestSink(1), false, 0); err == nil {
		t.Fatal("malformed filter expression accepted")
	}
}

// TestMatchesPredicate pins the filter predicate's result contract: a bool
// decides, a number delivers when non-zero, and an evaluation error or a
// result of any other type suppresses.
func TestMatchesPredicate(t *testing.T) {
	cases := []struct {
		src  string
		r    probe.Reading
		want bool
	}{
		{`sensor == "rtd-1"`, reading("rtd-1", 25), true},
		{`sensor == "rtd-1"`, reading("rtd-2", 25), false},
		{`kind == "temperature" && value > 20`, reading("rtd-1", 25), true},
		{`kind == "temperature" && value > 20`, reading("rtd-1", 15), false},
		{`value - 20`, reading("rtd-1", 25), true},
		{`value - 20`, reading("rtd-1", 20), false},
		{`value / 0`, reading("rtd-1", 25), false},
		{`sensor + "x"`, reading("rtd-1", 25), false},
	}
	for _, tc := range cases {
		prog := expr.MustCompile(tc.src)
		if got := matches(Filter{Expr: tc.src}, prog, tc.r, 0, false); got != tc.want {
			t.Errorf("%s on %s=%v: matches = %v, want %v", tc.src, tc.r.Sensor, tc.r.Value, got, tc.want)
		}
	}
}

func TestHubMinChange(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(100)
	if err := h.Subscribe("tok", Filter{MinChange: 0.5}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 20.0)) // first always passes
	sink.recv(t, 2*time.Second)
	h.Publish(reading("rtd-1", 20.2)) // moved 0.2 < 0.5: suppressed
	h.Publish(reading("rtd-1", 20.8)) // moved 0.8 from last accepted: passes
	u := sink.recv(t, 2*time.Second)
	if len(u.Readings) != 1 || u.Readings[0].Value != 20.8 {
		t.Fatalf("update = %+v", u)
	}
}

// TestHubSlowConsumerConflates is the conflation contract: a subscriber
// with no credit accumulates latest-per-sensor, and the next delivered
// update carries the final values plus an accurate dropped count.
func TestHubSlowConsumerConflates(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(1)
	if err := h.Subscribe("tok", Filter{}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 1))
	first := sink.recv(t, 2*time.Second) // consumed the only credit
	if first.Readings[0].Value != 1 {
		t.Fatalf("first = %+v", first)
	}
	// Burst while stalled: 10 readings for rtd-1, 3 for rtd-2.
	for i := 2; i <= 11; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	for i := 1; i <= 3; i++ {
		h.Publish(reading("rtd-2", float64(100+i)))
	}
	// Let the pump observe the blocked sink and conflate.
	time.Sleep(50 * time.Millisecond)
	sink.grant(10)
	u := sink.recv(t, 2*time.Second)
	got := map[string]float64{}
	for _, r := range u.Readings {
		got[r.Sensor] = r.Value
	}
	if got["rtd-1"] != 11 || got["rtd-2"] != 103 {
		t.Fatalf("latest-per-key violated: %+v", got)
	}
	// 13 readings accepted, 2 delivered in this update: 11 conflated away.
	if u.Dropped != 11 {
		t.Fatalf("dropped = %d, want 11", u.Dropped)
	}
	if u.SeqNo != first.SeqNo+1 {
		t.Fatalf("seq jumped: %d after %d", u.SeqNo, first.SeqNo)
	}
}

// TestHubStalledSubscriberDoesNotBlockSiblings: the publisher keeps
// shipping to a live subscriber at full rate while another is stalled —
// the acceptance criterion's seeded slow-consumer test.
func TestHubStalledSubscriberDoesNotBlockSiblings(t *testing.T) {
	h := NewHub()
	defer h.Close()
	stalled := newTestSink(0) // never any credit
	live := newTestSink(1 << 20)
	if err := h.Subscribe("stalled", Filter{}, stalled, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Subscribe("live", Filter{}, live, false, 0); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	publishTime := time.Since(start)
	// Publish must not have parked on the stalled subscriber: 2000
	// publishes complete in far under the pump's multi-second timescale.
	if publishTime > 5*time.Second {
		t.Fatalf("publisher stalled: %d publishes took %v", n, publishTime)
	}
	// The live subscriber converges on the final value.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var last float64 = -1
		for _, u := range live.all() {
			for _, r := range u.Readings {
				last = r.Value
			}
		}
		if last == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live subscriber never saw the final value (last %v)", last)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(stalled.all()); got != 0 {
		t.Fatalf("stalled sink received %d updates with zero credit", got)
	}
}

// TestHubDetachCancelsEphemeral: losing the sink of a non-durable
// subscription removes it.
func TestHubDetachCancelsEphemeral(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(10)
	if err := h.Subscribe("tok", Filter{}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	sink.Close(nil) // consumer gone
	deadline := time.Now().Add(2 * time.Second)
	for h.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription not reaped; count = %d", h.Count())
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Resume("tok", newTestSink(1)); err != ErrUnknownToken {
		t.Fatalf("resume after cancel = %v, want ErrUnknownToken", err)
	}
}

// TestHubParkResume: a durable subscription survives sink loss, buffers
// while parked, and the resume update carries backlog plus the drop gap.
func TestHubParkResume(t *testing.T) {
	h := NewHub(WithParkCapacity(4))
	defer h.Close()
	sink := newTestSink(10)
	if err := h.Subscribe("tok", Filter{}, sink, true, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 1))
	sink.recv(t, 2*time.Second)
	sink.Close(nil) // disconnect → parks
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.RLock()
		s := h.subs["tok"]
		h.mu.RUnlock()
		s.mu.Lock()
		parked := s.box != nil
		s.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durable subscription never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if h.Count() != 1 {
		t.Fatalf("count after park = %d, want 1", h.Count())
	}
	// 6 distinct sensors into a capacity-4 box: 2 oldest drop.
	for i := 0; i < 6; i++ {
		h.Publish(probe.Reading{Sensor: "s" + string(rune('a'+i)), Value: float64(i), Timestamp: time.Unix(1700000100, 0)})
	}
	sink2 := newTestSink(10)
	if err := h.Resume("tok", sink2); err != nil {
		t.Fatal(err)
	}
	u := sink2.recv(t, 2*time.Second)
	if len(u.Readings) != 4 {
		t.Fatalf("resume update has %d readings, want 4", len(u.Readings))
	}
	if u.Dropped != 2 {
		t.Fatalf("resume dropped = %d, want 2 (gap from park overflow)", u.Dropped)
	}
	// The survivors are the newest 4.
	if u.Readings[0].Sensor != "sc" || u.Readings[3].Sensor != "sf" {
		t.Fatalf("resume kept wrong window: %+v", u.Readings)
	}
	// And delivery continues live.
	h.Publish(reading("rtd-1", 2))
	u2 := sink2.recv(t, 2*time.Second)
	if u2.Readings[0].Value != 2 {
		t.Fatalf("post-resume update = %+v", u2)
	}
}

func TestHubResumeErrors(t *testing.T) {
	h := NewHub()
	defer h.Close()
	if err := h.Resume("nope", newTestSink(1)); err != ErrUnknownToken {
		t.Fatalf("unknown token: %v", err)
	}
	sink := newTestSink(1)
	if err := h.Subscribe("tok", Filter{}, sink, true, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := h.Resume("tok", newTestSink(1)); err != ErrAlreadyAttached {
		t.Fatalf("attached resume: %v", err)
	}
	if err := h.Subscribe("tok", Filter{}, newTestSink(1), false, 0); err != ErrDuplicateToken {
		t.Fatalf("duplicate: %v", err)
	}
}

// TestHubParkedLeaseExpiry: a parked subscription whose lease lapses is
// reaped on the next publish.
func TestHubParkedLeaseExpiry(t *testing.T) {
	clock := clockwork.NewFake(time.Unix(1700000000, 0))
	h := NewHub(WithHubClock(clock))
	defer h.Close()
	sink := newTestSink(10)
	if err := h.Subscribe("tok", Filter{}, sink, true, time.Second); err != nil {
		t.Fatal(err)
	}
	h.Detach("tok") // park with 1s lease
	if h.Count() != 1 {
		t.Fatalf("count after park = %d", h.Count())
	}
	clock.Advance(2 * time.Second)
	h.Publish(reading("rtd-1", 1))
	if h.Count() != 0 {
		t.Fatalf("expired parked subscription survived; count = %d", h.Count())
	}
	if err := h.Resume("tok", newTestSink(1)); err != ErrUnknownToken {
		t.Fatalf("resume after expiry = %v, want ErrUnknownToken", err)
	}
}

// TestHubMinIntervalPacing: with a min-interval, deliveries space out and
// intervening readings conflate.
func TestHubMinIntervalPacing(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sink := newTestSink(1000)
	if err := h.Subscribe("tok", Filter{MinIntervalMS: 100}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	h.Publish(reading("rtd-1", 1))
	sink.recv(t, 2*time.Second)
	// A burst inside the pacing window conflates to one update.
	for i := 2; i <= 5; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	u := sink.recv(t, 2*time.Second)
	if u.Readings[0].Value != 5 {
		t.Fatalf("paced update = %+v, want conflated latest 5", u.Readings)
	}
	select {
	case extra := <-sink.delivered:
		t.Fatalf("pacing violated: extra update %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestHubCloseStopsPumps: Close with stalled and live subscribers leaks
// no goroutines.
func TestHubCloseStopsPumps(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub()
	for i := 0; i < 10; i++ {
		if err := h.Subscribe("tok"+string(rune('0'+i)), Filter{}, newTestSink(0), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		h.Publish(reading("rtd-1", float64(i)))
	}
	h.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
}

// TestSourceSingleEval: a burst of upstream deltas coalesces into at
// most two evaluations regardless of subscriber count.
func TestSourceSingleEval(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sinks := make([]*testSink, 50)
	for i := range sinks {
		sinks[i] = newTestSink(1000)
		if err := h.Subscribe("tok"+string(rune('0'+i/10))+string(rune('0'+i%10)), Filter{}, sinks[i], false, 0); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	evals := 0
	src := NewSource(h, readerFunc(func() (probe.Reading, error) {
		mu.Lock()
		evals++
		v := evals
		mu.Unlock()
		time.Sleep(10 * time.Millisecond) // make evaluation slow enough to coalesce under
		return reading("composite", float64(v)), nil
	}))
	src.Start()
	defer src.Stop()
	// 100 upstream deltas in a burst.
	for i := 0; i < 100; i++ {
		src.Notify()
	}
	// Every subscriber gets the pushed value.
	for _, k := range sinks {
		k.recv(t, 5*time.Second)
	}
	mu.Lock()
	n := evals
	mu.Unlock()
	if n > 2 {
		t.Fatalf("burst of 100 deltas cost %d evaluations, want ≤ 2", n)
	}
	if src.Evals() != uint64(n) {
		t.Fatalf("Evals() = %d, want %d", src.Evals(), n)
	}
}

type readerFunc func() (probe.Reading, error)

func (f readerFunc) GetValue() (probe.Reading, error) { return f() }

// flushLog records, across the sinks that share it, the order of TrySend
// and Flush calls and whether any Flush ran under the hub's registry
// lock.
type flushLog struct {
	hub *Hub

	mu        sync.Mutex
	events    []string // "send" | "flush"
	underLock int
}

func (l *flushLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// flushSink is a testSink that also implements Flusher.
type flushSink struct {
	*testSink
	log *flushLog
}

func (k flushSink) TrySend(u *Update) error {
	err := k.testSink.TrySend(u)
	if err == nil {
		k.log.add("send")
	}
	return err
}

func (k flushSink) Flush() {
	// Publish holds h.mu for reading while it offers; a writer's TryLock
	// fails exactly then.
	if k.log.hub.mu.TryLock() {
		k.log.hub.mu.Unlock()
	} else {
		k.log.mu.Lock()
		k.log.underLock++
		k.log.mu.Unlock()
	}
	k.log.add("flush")
}

// TestPublishFlushesAfterLastSend: one Publish sends into every ready
// sink first and flushes afterwards, outside h.mu, once per sink it
// delivered to — and not at all for sinks it handed to the pump.
func TestPublishFlushesAfterLastSend(t *testing.T) {
	h := NewHub()
	defer h.Close()
	log := &flushLog{hub: h}
	const n = 16
	for i := 0; i < n; i++ {
		if err := h.Subscribe("ready"+string(rune('a'+i)), Filter{}, flushSink{newTestSink(100), log}, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Neither of these is delivered inline, so neither is flushed; they
	// log apart from the ready sinks because the pump sends concurrently.
	pumpLog := &flushLog{hub: h}
	blocked := flushSink{newTestSink(0), pumpLog}
	if err := h.Subscribe("blocked", Filter{}, blocked, false, 0); err != nil {
		t.Fatal(err)
	}
	paced := flushSink{newTestSink(100), pumpLog}
	if err := h.Subscribe("paced", Filter{MinIntervalMS: 1}, paced, false, 0); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, "send")
	}
	for i := 0; i < n; i++ {
		want = append(want, "flush")
	}
	for round := 1; round <= 3; round++ {
		log.events = log.events[:0] // Publish below is the only writer
		h.Publish(reading("rtd-1", float64(round)))
		if !slices.Equal(log.events, want) {
			t.Fatalf("round %d: events %v, want %d sends then %d flushes", round, log.events, n, n)
		}
		paced.recv(t, 2*time.Second)
	}
	if log.underLock != 0 {
		t.Fatalf("%d Flush calls ran while Publish held h.mu", log.underLock)
	}
	pumpLog.mu.Lock()
	defer pumpLog.mu.Unlock()
	if slices.Contains(pumpLog.events, "flush") {
		t.Fatalf("Publish flushed a sink it did not deliver to: %v", pumpLog.events)
	}
	if got := len(blocked.all()); got != 0 {
		t.Fatalf("blocked sink received %d updates", got)
	}
}

// TestPublishToSinkWithoutFlusher pins the optional half of the
// contract: a Sink with exactly its four methods (the benchmark's
// nullSink is one) is delivered to like any other, beside one that
// flushes.
func TestPublishToSinkWithoutFlusher(t *testing.T) {
	h := NewHub()
	defer h.Close()
	plain := newTestSink(100)
	if _, ok := Sink(plain).(Flusher); ok {
		t.Fatal("testSink grew a Flush method; this test needs a sink without one")
	}
	log := &flushLog{hub: h}
	flushing := flushSink{newTestSink(100), log}
	if err := h.Subscribe("plain", Filter{}, plain, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Subscribe("flushing", Filter{}, flushing, false, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		h.Publish(reading("rtd-1", float64(i)))
		for _, k := range []*testSink{plain, flushing.testSink} {
			if u := k.recv(t, 2*time.Second); u.SeqNo != uint64(i) || u.Readings[0].Value != float64(i) {
				t.Fatalf("publish %d: update = %+v", i, u)
			}
		}
	}
	if want := []string{"send", "flush", "send", "flush", "send", "flush"}; !slices.Equal(log.events, want) {
		t.Fatalf("flushing sink saw %v, want %v", log.events, want)
	}
}

// TestDirectPathConservesUnderBlocking drives one unpaced subscription
// through every hand-off the direct single-reading path has — idle →
// direct send, blocked → requeue → pump, credit back → pump drains →
// idle again — with four sources publishing at once and credit arriving
// in dribbles. Whatever the interleaving: SeqNo is contiguous from 1,
// no sensor's value goes backwards, every sensor converges on its last
// published value, and delivered + ΣDropped equals what was published.
func TestDirectPathConservesUnderBlocking(t *testing.T) {
	const sources, perSource = 4, 2000
	h := NewHub()
	defer h.Close()
	sink := newTestSink(2)
	if err := h.Subscribe("tok", Filter{}, sink, false, 0); err != nil {
		t.Fatal(err)
	}
	stopGrants := make(chan struct{})
	var granter sync.WaitGroup
	granter.Add(1)
	go func() {
		defer granter.Done()
		for i := 0; ; i++ {
			select {
			case <-stopGrants:
				return
			default:
			}
			// Mostly starved, sometimes flush with credit, so both the
			// blocked and the idle state recur.
			sink.grant(1 + (i%7)*3)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var pubs sync.WaitGroup
	for src := 0; src < sources; src++ {
		pubs.Add(1)
		go func(sensor string) {
			defer pubs.Done()
			for v := 1; v <= perSource; v++ {
				h.Publish(reading(sensor, float64(v)))
			}
		}("s" + string(rune('0'+src)))
	}
	pubs.Wait()
	close(stopGrants)
	granter.Wait()
	sink.grant(1 << 20)

	const published = sources * perSource
	var updates []*Update
	var delivered, dropped uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		updates = sink.all()
		delivered, dropped = 0, 0
		for _, u := range updates {
			delivered += uint64(len(u.Readings))
			dropped += u.Dropped
		}
		if delivered+dropped == published {
			break
		}
		if delivered+dropped > published || time.Now().After(deadline) {
			t.Fatalf("delivered %d + dropped %d = %d, want %d", delivered, dropped, delivered+dropped, published)
		}
		time.Sleep(time.Millisecond)
	}
	last := map[string]float64{}
	for i, u := range updates {
		if u.SeqNo != uint64(i+1) {
			t.Fatalf("update %d carries SeqNo %d", i, u.SeqNo)
		}
		for _, r := range u.Readings {
			if r.Value < last[r.Sensor] {
				t.Fatalf("update %d: %s went back from %v to %v", i, r.Sensor, last[r.Sensor], r.Value)
			}
			last[r.Sensor] = r.Value
		}
	}
	for src := 0; src < sources; src++ {
		if got := last["s"+string(rune('0'+src))]; got != perSource {
			t.Fatalf("s%d converged on %v, want %d", src, got, perSource)
		}
	}
	t.Logf("%d updates, %d readings delivered, %d dropped", len(updates), delivered, dropped)
}
