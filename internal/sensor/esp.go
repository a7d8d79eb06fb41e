package sensor

import (
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/event"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/txn"
)

// EventReadingUpdate is fired by an ESP on every background sample.
const EventReadingUpdate uint64 = 1

// ESP is the Elementary Sensor Provider, "the basic building block of this
// framework" (§V-B): it employs a probe to connect one sensor, keeps
// recent readings in a local store, and exposes them through the common
// SensorDataAccessor interface and the SORCER Servicer interface. In
// sensor-network semantics the ESP plays the role of a node.
type ESP struct {
	id    ids.ServiceID
	name  string
	probe probe.Probe
	clock clockwork.Clock
	store *RingStore

	// interval > 0 runs a background sampling loop; 0 samples on demand.
	interval time.Duration
	events   *event.Generator

	mu      sync.Mutex
	lastErr error
	running bool
	stop    chan struct{}
	done    chan struct{}
}

// ESPOption configures an ESP.
type ESPOption func(*ESP)

// WithSampleInterval enables background sampling at the given period.
func WithSampleInterval(d time.Duration) ESPOption {
	return func(e *ESP) { e.interval = d }
}

// WithClock injects a clock (tests).
func WithClock(c clockwork.Clock) ESPOption {
	return func(e *ESP) { e.clock = c }
}

// NewESP creates an elementary sensor provider over the probe.
func NewESP(name string, p probe.Probe, opts ...ESPOption) *ESP {
	e := &ESP{
		id:    ids.NewServiceID(),
		name:  name,
		probe: p,
		clock: clockwork.Real(),
		store: NewRingStore(64),
	}
	for _, o := range opts {
		o(e)
	}
	e.events = event.NewGenerator(e.id, e.clock, lease.Policy{Max: lease.DefaultMax})
	return e
}

// ID returns the service identity.
func (e *ESP) ID() ids.ServiceID { return e.id }

// SensorName implements DataAccessor.
func (e *ESP) SensorName() string { return e.name }

// Describe implements DataAccessor.
func (e *ESP) Describe() probe.Info {
	info := e.probe.Info()
	info.Name = e.name
	return info
}

// Health reports the underlying device condition when the probe supports
// it (battery level for SPOT probes).
func (e *ESP) Health() (float64, bool) {
	if hr, ok := e.probe.(probe.HealthReporter); ok {
		return hr.Health()
	}
	return 0, false
}

// Events exposes the reading-update event generator.
func (e *ESP) Events() *event.Generator { return e.events }

// Store exposes the local reading store (monitoring, tests).
func (e *ESP) Store() *RingStore { return e.store }

// Start launches the background sampling loop (no-op when the ESP is
// on-demand or already running).
func (e *ESP) Start() {
	if e.interval <= 0 {
		return
	}
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return
	}
	e.running = true
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	stop, done := e.stop, e.done
	e.mu.Unlock()
	go e.loop(stop, done)
}

func (e *ESP) loop(stop, done chan struct{}) {
	defer close(done)
	for {
		e.sampleOnce()
		timer := e.clock.NewTimer(e.interval)
		select {
		case <-timer.C():
		case <-stop:
			timer.Stop()
			return
		}
	}
}

func (e *ESP) sampleOnce() {
	r, err := e.probe.Read()
	e.mu.Lock()
	e.lastErr = err
	e.mu.Unlock()
	if err != nil {
		return
	}
	r.Sensor = e.name
	e.store.Add(r)
	e.events.Fire(EventReadingUpdate, r)
}

// Stop halts background sampling. The ESP can be restarted.
func (e *ESP) Stop() {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return
	}
	e.running = false
	stop, done := e.stop, e.done
	e.mu.Unlock()
	close(stop)
	<-done
}

// Close stops sampling, closes the probe and the event generator.
func (e *ESP) Close() error {
	e.Stop()
	e.events.Close()
	return e.probe.Close()
}

// GetValue implements DataAccessor. On-demand ESPs read the probe; sampled
// ESPs return the latest stored reading (falling back to a direct read
// before the first sample lands).
func (e *ESP) GetValue() (probe.Reading, error) {
	if e.interval > 0 {
		if r, ok := e.store.Latest(); ok {
			return r, nil
		}
		e.mu.Lock()
		lastErr := e.lastErr
		e.mu.Unlock()
		if lastErr != nil {
			return probe.Reading{}, fmt.Errorf("sensor %q: %w", e.name, lastErr)
		}
	}
	r, err := e.probe.Read()
	if err != nil {
		return probe.Reading{}, fmt.Errorf("sensor %q: %w", e.name, err)
	}
	r.Sensor = e.name
	e.store.Add(r)
	return r, nil
}

// GetReadings implements DataAccessor.
func (e *ESP) GetReadings(n int) []probe.Reading {
	return e.store.LastN(n)
}

// AppendValues implements ValueHistory over the local store.
func (e *ESP) AppendValues(dst []float64, n int) []float64 {
	return e.store.AppendValues(dst, n)
}

// Service implements sorcer.Servicer, serving the getValue, getReadings
// and getInfo selectors on the AccessorType signature.
func (e *ESP) Service(ex sorcer.Exertion, tx *txn.Transaction) (sorcer.Exertion, error) {
	return serveAccessor(e, ex, tx)
}

// Publish joins the ESP to every discovered lookup service with the
// standard elementary-sensor attributes (plus extras such as Location).
func (e *ESP) Publish(clock clockwork.Clock, mgr *discovery.Manager, extra ...attr.Entry) *discovery.Join {
	info := e.Describe()
	attrs := attr.Set{
		attr.Name(e.name),
		attr.SensorType(info.Kind, info.Unit),
		attr.ServiceType(CategoryElementary),
		attr.ServiceInfo("SenSORCER", "ESP/"+info.Technology, "1.0"),
	}
	attrs = append(attrs, extra...)
	return sorcer.PublishServicer(clock, mgr, e, e.id, e.name, []string{AccessorType}, attrs)
}

// serveAccessor is the shared Servicer implementation for every sensor
// provider (ESP and CSP serve identical selectors).
func serveAccessor(acc DataAccessor, ex sorcer.Exertion, _ *txn.Transaction) (sorcer.Exertion, error) {
	task, ok := ex.(*sorcer.Task)
	if !ok {
		return ex, fmt.Errorf("%w: got %T", sorcer.ErrNotTask, ex)
	}
	sig := task.Signature()
	if sig.ServiceType != AccessorType {
		return task, fmt.Errorf("%w: %q", sorcer.ErrWrongType, sig.ServiceType)
	}
	ctx := task.Context()
	op := func() error {
		switch sig.Selector {
		case SelGetValue:
			r, err := acc.GetValue()
			if err != nil {
				return err
			}
			putReading(ctx, r)
			return nil
		case SelGetReadings:
			n := 0
			if f, err := ctx.Float(PathCount); err == nil {
				n = int(f)
			}
			readings := acc.GetReadings(n)
			values := make([]float64, len(readings))
			for i, r := range readings {
				values[i] = r.Value
			}
			ctx.Put(PathReadings, values)
			ctx.Put(PathName, acc.SensorName())
			return nil
		case SelGetInfo:
			info := acc.Describe()
			ctx.Put(PathName, info.Name)
			ctx.Put(PathKind, info.Kind)
			ctx.Put(PathUnit, info.Unit)
			ctx.Put("sensor/technology", info.Technology)
			if hr, ok := acc.(probe.HealthReporter); ok {
				if level, has := hr.Health(); has {
					ctx.Put(PathHealth, level)
				}
			}
			return nil
		default:
			return fmt.Errorf("%w: %q", sorcer.ErrUnknownSelector, sig.Selector)
		}
	}
	if err := op(); err != nil {
		markTask(task, ctx, err)
		return task, err
	}
	markTask(task, ctx, nil)
	return task, nil
}

func putReading(ctx *sorcer.Context, r probe.Reading) {
	ctx.Put(PathValue, r.Value)
	ctx.Put(PathUnit, r.Unit)
	ctx.Put(PathKind, r.Kind)
	ctx.Put(PathName, r.Sensor)
	ctx.Put(PathTimestamp, r.Timestamp)
}

// markTask transitions a task we executed ourselves (without going through
// sorcer.Provider) into its final state.
func markTask(task *sorcer.Task, ctx *sorcer.Context, err error) {
	// Task result plumbing lives in package sorcer; reuse a tiny
	// provider-less transition helper there.
	sorcer.FinishTask(task, ctx, err)
}

// ensure interface satisfaction.
var (
	_ DataAccessor    = (*ESP)(nil)
	_ sorcer.Servicer = (*ESP)(nil)
)
