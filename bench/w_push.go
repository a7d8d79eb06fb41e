package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sensorcer/internal/remote"
	"sensorcer/internal/srpc"
	"sensorcer/internal/subscribe"
)

// push_fanout: sample-to-subscriber delivery. Four ESPs sampling at
// 50 Hz feed one subscribe.Hub through a Source each; 256 subscriptions
// ride two srpc connections: 128 unfiltered, 64 filtered to one sensor
// with an always-true predicate, 64 paced to one update per 100 ms. The
// workload is open by construction — the sensors sample whether or not
// anyone keeps up — and it is the only one where the event, subscribe
// and stream-flusher queues dominate while request/response code idles;
// the hub's inline, pump and pacing paths all run.
const (
	pushSubs       = 256
	pushUnfiltered = 128
	pushFiltered   = 64 // the rest are paced
	pushPaceMS     = 100
)

// Subscription kinds.
const (
	subUnfiltered = iota
	subFiltered
	subPaced
)

// pushSub is one subscription and what its receiver has seen.
type pushSub struct {
	kind   int
	sensor int // the one sensor a filtered subscription hears
	sc     *remote.SubscriberClient
	done   chan struct{}

	mu        sync.Mutex
	delivered [pushSensors]uint64
	last      [pushSensors]float64
	dropped   uint64
	backwards int       // readings older than their predecessor
	stale     []float64 // paced: sample-to-receive, ms
}

type pushFanout struct {
	main    *child
	proxy   *countingProxy
	clients [connections]*srpc.Client
	ctl     *srpc.Client
	epoch   time.Time
	subs    []*pushSub
	// rec, while set, receives the sample-to-receive latency of every
	// reading delivered on an unpaced subscription.
	rec      atomic.Pointer[windows]
	readings atomic.Int64 // readings delivered, all subscriptions
	tr       *tracer
}

func pushFilter(i int) (kind, sensor int, f subscribe.Filter) {
	switch {
	case i < pushUnfiltered:
		return subUnfiltered, 0, subscribe.Filter{}
	case i < pushUnfiltered+pushFiltered:
		s := i % pushSensors
		return subFiltered, s, subscribe.Filter{Sensors: []string{pushSensorName(s)}, Expr: "value >= 0"}
	default:
		return subPaced, 0, subscribe.Filter{MinIntervalMS: pushPaceMS}
	}
}

// trackOf maps a sensor name to its index in the per-sensor arrays.
func trackOf(name string) int {
	for i := 0; i < pushSensors; i++ {
		if name == pushSensorName(i) {
			return i
		}
	}
	return -1
}

// setup starts the node, opens nsubs subscriptions over the two
// connections, starts sampling once the hub holds them all, and returns
// when a reading has arrived on every connection.
func (w *pushFanout) setup(sb *sandbox, nsubs int, trace bool) error {
	w.epoch = time.Now()
	var err error
	if w.main, err = spawnNode(sb, nodeSpec{Role: rolePush, Trace: trace, EpochNS: w.epoch.UnixNano()}); err != nil {
		return err
	}
	addr := w.main.addr
	if trace {
		w.tr = &tracer{}
		if w.proxy, err = newCountingProxy(addr); err != nil {
			return err
		}
		addr = w.proxy.addr()
	}
	for i := range w.clients {
		if w.clients[i], err = srpc.Dial(addr, 5*time.Second); err != nil {
			return err
		}
	}
	if w.ctl, err = srpc.Dial(w.main.addr, 5*time.Second); err != nil {
		return err
	}
	for i := 0; i < nsubs; i++ {
		kind, sensor, f := pushFilter(i)
		sc, err := remote.Subscribe(w.clients[i%connections], f)
		if err != nil {
			return err
		}
		s := &pushSub{kind: kind, sensor: sensor, sc: sc, done: make(chan struct{})}
		w.subs = append(w.subs, s)
		// Spans are kept for the first subscription of each connection
		// only: enough to follow deliveries end to end without holding a
		// span per reading per subscriber.
		go w.receive(s, trace && i < connections)
	}
	// Stream opens are asynchronous; sampling must not start before the
	// hub holds every subscription, or the offered counts would differ.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := fetchStats(w.ctl)
		if err != nil {
			return err
		}
		if st.Subscriptions == nsubs {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hub holds %d of %d subscriptions", st.Subscriptions, nsubs)
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.sampling(true); err != nil {
		return err
	}
	for i := 0; i < connections && i < nsubs; i++ {
		for w.subs[i].seen() == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("no delivery on connection %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (w *pushFanout) sampling(on bool) error {
	return w.ctl.Call(methodSampling, samplingParams{On: on}, nil)
}

func (s *pushSub) seen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, d := range s.delivered {
		n += d
	}
	return n
}

// receive consumes one subscription until its stream ends.
func (w *pushFanout) receive(s *pushSub, spans bool) {
	defer close(s.done)
	for {
		u, err := s.sc.Recv(0)
		if err != nil {
			return
		}
		now := time.Now()
		rec := w.rec.Load()
		s.mu.Lock()
		s.dropped += u.Dropped
		for _, r := range u.Readings {
			t := trackOf(r.Sensor)
			if t < 0 {
				s.backwards++
				continue
			}
			stamp := math.Round(r.Value)
			if stamp < s.last[t] {
				s.backwards++
			}
			s.last[t] = stamp
			s.delivered[t]++
			sampled := w.epoch.Add(time.Duration(stamp) * time.Microsecond)
			us := float64(now.Sub(sampled)) / float64(time.Microsecond)
			switch {
			case s.kind == subPaced:
				if rec != nil {
					s.stale = append(s.stale, us/1e3)
				}
			case rec != nil:
				rec.add(now, us)
			}
			if spans {
				w.tr.add(span{Name: "push.delivery", Req: uint64(stamp), Start: sampled.UnixNano(), End: now.UnixNano()})
			}
		}
		s.mu.Unlock()
		w.readings.Add(int64(len(u.Readings)))
	}
}

// observe records deliveries for dur and returns how many readings
// arrived in that time.
func (w *pushFanout) observe(dur time.Duration, rec *windows) (int64, time.Duration) {
	start := time.Now()
	before := w.readings.Load()
	w.rec.Store(rec)
	time.Sleep(dur)
	w.rec.Store(nil)
	return w.readings.Load() - before, time.Since(start)
}

// settle stops sampling, waits for every subscriber to converge on each
// sensor's last sample, and checks the hub's accounting: what a
// subscription was delivered plus what its updates reported dropped
// equals what the sources published to it.
func (w *pushFanout) settle(res *result) error {
	if err := w.sampling(false); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	var problems []string
	for {
		// Two equal snapshots bracket the check, so no evaluation slipped
		// in between reading the node and reading the subscribers.
		st, err := fetchStats(w.ctl)
		if err != nil {
			return err
		}
		problems = w.audit(st)
		again, err := fetchStats(w.ctl)
		if err != nil {
			return err
		}
		if len(problems) == 0 && fmt.Sprint(st.Evals) == fmt.Sprint(again.Evals) {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, p := range problems {
		res.problem("%s", p)
	}
	res.Failed += len(problems)
	for i, s := range w.subs {
		s.mu.Lock()
		if s.backwards > 0 {
			res.problem("subscription %d: %d readings arrived out of order", i, s.backwards)
			res.Failed += s.backwards
		}
		s.mu.Unlock()
	}
	return nil
}

// audit compares every subscriber's counts and last values with the
// node's.
func (w *pushFanout) audit(st nodeStats) []string {
	var problems []string
	for i, s := range w.subs {
		s.mu.Lock()
		var got, offered uint64
		for t := 0; t < pushSensors && t < len(st.Evals); t++ {
			if s.kind == subFiltered && t != s.sensor {
				continue
			}
			got += s.delivered[t]
			offered += st.Evals[t]
			if s.last[t] != math.Round(st.Last[t]) && len(problems) < 8 {
				problems = append(problems, fmt.Sprintf("subscription %d: last value of sensor %d is %.0f, sensor's last sample is %.0f",
					i, t, s.last[t], st.Last[t]))
			}
		}
		if got+s.dropped != offered && len(problems) < 8 {
			problems = append(problems, fmt.Sprintf("subscription %d: delivered %d + dropped %d != offered %d",
				i, got, s.dropped, offered))
		}
		s.mu.Unlock()
	}
	return problems
}

func (w *pushFanout) close() {
	// Closing the connections ends every stream, which is what makes the
	// receivers' Recv return.
	for _, c := range w.clients {
		if c != nil {
			c.Close()
		}
	}
	for _, s := range w.subs {
		<-s.done
	}
	if w.ctl != nil {
		w.ctl.Close()
	}
	if w.proxy != nil {
		w.proxy.close()
	}
	releaseAll(w.main)
}

// segment listens for dur: the sensors sample whether or not anyone does.
func (w *pushFanout) segment(dur time.Duration, rec *windows) loadStats {
	n, elapsed := w.observe(dur, rec)
	return loadStats{attempted: int(n), elapsed: elapsed}
}

// timerBound: a pushed reading waits out the flusher's 200 µs gather
// window, which an idle Go runtime rounds up to a millisecond; that wait
// is two thirds of the median and no longer on a slow host than a fast one.
func (w *pushFanout) timerBound() bool                 { return true }
func (w *pushFanout) classTimes() map[string][]float64 { return nil }
func (w *pushFanout) sut() []*child                    { return []*child{w.main} }

func (w *pushFanout) check(res *result) error {
	if err := w.settle(res); err != nil {
		return err
	}
	res.Info.set("subscribe.paced_staleness_p50_ms", "ms", w.pacedStaleness(), 0)
	res.Info.set("subscribe.dropped_share", "share", w.droppedShare(), 0)
	return nil
}

// pacedStaleness is the median sample-to-receive time on the paced
// subscriptions, in milliseconds.
func (w *pushFanout) pacedStaleness() float64 {
	var all []float64
	for _, s := range w.subs {
		s.mu.Lock()
		all = append(all, s.stale...)
		s.mu.Unlock()
	}
	return percentile(all, 50)
}

// droppedShare is the share of offered readings the subscribers were
// told they lost to conflation.
func (w *pushFanout) droppedShare() float64 {
	var dropped, delivered uint64
	for _, s := range w.subs {
		s.mu.Lock()
		dropped += s.dropped
		for _, d := range s.delivered {
			delivered += d
		}
		s.mu.Unlock()
	}
	if dropped+delivered == 0 {
		return 0
	}
	return float64(dropped) / float64(dropped+delivered)
}
