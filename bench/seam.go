package main

import (
	"sync"
	"sync/atomic"
	"time"

	"sensorcer/internal/lease"
	"sensorcer/internal/repl"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/subscribe"
	"sensorcer/internal/txn"
)

// span is one timed interval at a layer boundary. Start and End are
// wall-clock nanoseconds, so spans from the driver and from a node on
// the same host line up. Spans of one request share Req: the call
// ordinal per service for reads and lookups, the stamp value for pushed
// readings, the job id for jobs (0 = not tied to one request).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// N and Bytes carry the counts taken at the same boundary (records
	// and payload bytes of a ship; entries of a space operation).
	N     int `json:"n,omitempty"`
	Bytes int `json:"bytes,omitempty"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a span around fn.
func (t *tracer) timed(name, parent string, req uint64, fn func()) {
	start := time.Now().UnixNano()
	fn()
	t.add(span{Name: name, Parent: parent, Req: req, Start: start, End: time.Now().UnixNano()})
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// The wrappers below are pass-through: each implements an interface the
// program already accepts at a layer seam, forwards every call and
// records how long it took. Only a traced node installs them.

// seamAccessor times GetValue of a sensor.DataAccessor handed to
// remote.ServeAccessor or CSP.AddChild. Req is the call ordinal.
type seamAccessor struct {
	sensor.DataAccessor
	t      *tracer
	name   string
	parent string
	calls  atomic.Uint64
}

func (s *seamAccessor) GetValue() (r probe.Reading, err error) {
	s.t.timed(s.name, s.parent, s.calls.Add(1), func() { r, err = s.DataAccessor.GetValue() })
	return r, err
}

// seamReader times the subscribe.Reader handed to subscribe.NewSource.
// The reading's value is the probe's stamp (µs since the run epoch), so
// it doubles as the request id, and the gap from the stamp to the call's
// start is what the sample spent in the ring store, the event
// generator's queue and the source's dirty flag.
type seamReader struct {
	inner subscribe.Reader
	t     *tracer
	epoch time.Time
}

func (s *seamReader) GetValue() (probe.Reading, error) {
	start := time.Now()
	r, err := s.inner.GetValue()
	end := time.Now()
	if err == nil {
		req := uint64(r.Value)
		stamped := s.epoch.Add(time.Duration(r.Value * float64(time.Microsecond)))
		s.t.add(span{Name: "event.queue", Parent: "push.delivery", Req: req, Start: stamped.UnixNano(), End: start.UnixNano()})
		s.t.add(span{Name: "subscribe.eval", Parent: "push.delivery", Req: req, Start: start.UnixNano(), End: end.UnixNano()})
	}
	return r, err
}

// seamSpace times the sorcer.SpaceOps handed to sorcer.NewSpacer and
// sorcer.NewSpaceWorker. side tells the two apart ("spacer", "worker").
// A spacer-side call is tied to its job through the job id the bench
// puts in every task's context; the batch id the spacer mints links the
// later result takes back to it.
type seamSpace struct {
	inner sorcer.SpaceOps
	t     *tracer
	side  string

	mu      sync.Mutex
	batches map[string]uint64 // spacer batch id -> job id
}

func jobOfEntry(e space.Entry) uint64 {
	if task, ok := e.Field("task").(*sorcer.Task); ok {
		if id, err := task.Context().Float(pathJobID); err == nil {
			return uint64(id)
		}
	}
	return 0
}

func (s *seamSpace) record(op string, req uint64, n int, start time.Time) {
	parent := ""
	if s.side == "spacer" {
		parent = "sorcer.job"
	}
	s.t.add(span{Name: "space." + s.side + "." + op, Parent: parent, Req: req, N: n,
		Start: start.UnixNano(), End: time.Now().UnixNano()})
}

func (s *seamSpace) Write(e space.Entry, tx *txn.Transaction, d time.Duration) (lease.Lease, error) {
	start := time.Now()
	l, err := s.inner.Write(e, tx, d)
	s.record("write", jobOfEntry(e), 1, start)
	return l, err
}

func (s *seamSpace) WriteBatch(es []space.Entry, tx *txn.Transaction, d time.Duration) ([]lease.Lease, error) {
	var req uint64
	if len(es) > 0 && s.side == "spacer" {
		req = jobOfEntry(es[0])
		if batch, _ := es[0].Field("batchID").(string); batch != "" {
			s.mu.Lock()
			if s.batches == nil {
				s.batches = make(map[string]uint64)
			}
			s.batches[batch] = req
			s.mu.Unlock()
		}
	}
	start := time.Now()
	ls, err := s.inner.WriteBatch(es, tx, d)
	s.record("write_batch", req, len(es), start)
	return ls, err
}

func (s *seamSpace) Read(tmpl space.Entry, tx *txn.Transaction, d time.Duration) (space.Entry, error) {
	start := time.Now()
	e, err := s.inner.Read(tmpl, tx, d)
	s.record("read", 0, 1, start)
	return e, err
}

func (s *seamSpace) Take(tmpl space.Entry, tx *txn.Transaction, d time.Duration) (space.Entry, error) {
	start := time.Now()
	e, err := s.inner.Take(tmpl, tx, d)
	s.record("take", 0, 1, start)
	return e, err
}

func (s *seamSpace) TakeAny(tmpl space.Entry, max int, tx *txn.Transaction, d time.Duration) ([]space.Entry, error) {
	var req uint64
	if batch, _ := tmpl.Field("batchID").(string); batch != "" {
		s.mu.Lock()
		req = s.batches[batch]
		s.mu.Unlock()
	}
	start := time.Now()
	es, err := s.inner.TakeAny(tmpl, max, tx, d)
	if err == nil {
		// A worker's empty poll (timeout) is idling, not work on a job.
		s.record("take_any", req, len(es), start)
	}
	return es, err
}

func (s *seamSpace) Count(tmpl space.Entry) int {
	start := time.Now()
	n := s.inner.Count(tmpl)
	s.record("count", 0, n, start)
	return n
}

// seamFollower times the repl.Follower handed to Node.AttachBackup: one
// span per ship, with the records and payload bytes it carried.
type seamFollower struct {
	repl.Follower
	t *tracer
}

func (s *seamFollower) ShipBatch(epoch, firstSeq uint64, payloads [][]byte) (uint64, error) {
	bytes := 0
	for _, p := range payloads {
		bytes += len(p)
	}
	start := time.Now().UnixNano()
	next, err := s.Follower.ShipBatch(epoch, firstSeq, payloads)
	s.t.add(span{Name: "repl.ship", Start: start, End: time.Now().UnixNano(), N: len(payloads), Bytes: bytes})
	return next, err
}
