package sensor

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/expr"
	"sensorcer/internal/ids"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/txn"
)

// ErrNoChildren is returned when reading an empty composite.
var ErrNoChildren = errors.New("sensor: composite has no component services")

// HistoryWindow is how many recent readings a "<var>_hist" expression
// variable carries.
const HistoryWindow = 16

// ErrChildTimeout is returned when a component read exceeds the deadline.
var ErrChildTimeout = errors.New("sensor: component read timed out")

// readTimeout bounds each composite read (all children in parallel).
const readTimeout = 5 * time.Second

// CSP is the Composite Sensor Provider (§V-B): it composes ESPs and other
// CSPs, collects their values, binds them to runtime variables (a, b, c,
// ... in composition order — §VI: "the variables that are used in the
// expression are created dynamically, as the services are added"), and
// evaluates its compute-expression over them. Because a CSP is itself a
// DataAccessor, composites nest: "CSP's ability to contain other CSPs
// makes logical sensor networking possible", which is exactly Fig. 3's
// two-level network.
type CSP struct {
	id    ids.ServiceID
	name  string
	clock clockwork.Clock
	store *RingStore

	// sequential forces one-at-a-time child reads (ablation benchmark).
	sequential bool

	mu       sync.Mutex
	children []childBinding
	program  *expr.Program
	// histWanted is hoisted from the program at SetExpression time — the
	// read path consults it on every evaluation, and a compiled program's
	// variable set never changes.
	histWanted map[string]bool
	// bound is the program slot-bound against the current child ordering
	// (recomputed whenever children or expression change); nil when there
	// is no program or the expression needs the generic Env path. Reads
	// evaluate it over raw float64 slots with no env construction or
	// boxing.
	bound *expr.BoundProgram
	// histChild[i] reports whether the expression uses child i's history
	// variable.
	histChild []bool
}

type childBinding struct {
	varName  string
	accessor DataAccessor
}

// ChildInfo reports one composed service ("Contained Services" panel of
// Fig. 2).
type ChildInfo struct {
	Var  string
	Name string
}

// CSPOption configures a CSP.
type CSPOption func(*CSP)

// WithSequentialReads disables parallel child evaluation.
func WithSequentialReads() CSPOption {
	return func(c *CSP) { c.sequential = true }
}

// WithCSPClock injects a clock.
func WithCSPClock(clock clockwork.Clock) CSPOption {
	return func(c *CSP) { c.clock = clock }
}

// NewCSP creates an empty composite sensor provider.
func NewCSP(name string, opts ...CSPOption) *CSP {
	c := &CSP{
		id:    ids.NewServiceID(),
		name:  name,
		clock: clockwork.Real(),
		store: NewRingStore(64),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ID returns the service identity.
func (c *CSP) ID() ids.ServiceID { return c.id }

// SensorName implements DataAccessor.
func (c *CSP) SensorName() string { return c.name }

// varName yields the i-th runtime variable name: a..z, then v26, v27...
func varName(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return "v" + strconv.Itoa(i)
}

// AddChild composes another sensor service, returning the variable name
// bound to it.
func (c *CSP) AddChild(acc DataAccessor) (string, error) {
	if acc == nil {
		return "", errors.New("sensor: nil component service")
	}
	if acc == DataAccessor(c) {
		return "", errors.New("sensor: composite cannot contain itself")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.children {
		if ch.accessor.SensorName() == acc.SensorName() {
			return "", fmt.Errorf("sensor: %q already composed in %q", acc.SensorName(), c.name)
		}
	}
	v := varName(len(c.children))
	c.children = append(c.children, childBinding{varName: v, accessor: acc})
	c.rebindLocked()
	return v, nil
}

// RemoveChild removes a composed service by sensor name. Remaining
// children are re-bound to a, b, c... in their surviving order.
func (c *CSP) RemoveChild(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ch := range c.children {
		if ch.accessor.SensorName() == name {
			c.children = append(c.children[:i], c.children[i+1:]...)
			for j := range c.children {
				c.children[j].varName = varName(j)
			}
			c.rebindLocked()
			return nil
		}
	}
	return fmt.Errorf("sensor: %q not composed in %q", name, c.name)
}

// Children lists the composed services in variable order.
func (c *CSP) Children() []ChildInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ChildInfo, len(c.children))
	for i, ch := range c.children {
		out[i] = ChildInfo{Var: ch.varName, Name: ch.accessor.SensorName()}
	}
	return out
}

// SetExpression compiles and installs the compute-expression. An empty
// source restores the default (average of all components).
func (c *CSP) SetExpression(source string) error {
	if source == "" {
		c.mu.Lock()
		c.program = nil
		c.histWanted = nil
		c.rebindLocked()
		c.mu.Unlock()
		return nil
	}
	p, err := expr.Compile(source)
	if err != nil {
		return fmt.Errorf("sensor: expression for %q: %w", c.name, err)
	}
	// Which history variables ("a_hist") does the expression use? Hoisted
	// here so every read doesn't rediscover it; only children named in it
	// pay the history-binding cost.
	hist := make(map[string]bool)
	for _, v := range p.Vars() {
		if strings.HasSuffix(v, "_hist") {
			hist[strings.TrimSuffix(v, "_hist")] = true
		}
	}
	c.mu.Lock()
	c.program = p
	c.histWanted = hist
	c.rebindLocked()
	c.mu.Unlock()
	return nil
}

// rebindLocked recomputes the slot binding after any change to the child
// set or the expression. Binding happens here — not on the read path — so
// GetValue evaluates against integer slots with no name resolution. A
// failed Bind (expression references a variable no child provides yet,
// or uses constructs beyond the numeric fast path) simply leaves bound
// nil; reads then take the Env path, whose semantics are the reference
// (including the eval-time "unbound variable" error).
func (c *CSP) rebindLocked() {
	c.bound = nil
	c.histChild = nil
	if c.program == nil {
		return
	}
	names := make([]string, len(c.children))
	for i := range c.children {
		names[i] = c.children[i].varName
	}
	if bp, err := c.program.Bind(names); err == nil {
		c.bound = bp
	}
	c.histChild = make([]bool, len(names))
	for i, n := range names {
		c.histChild[i] = c.histWanted[n]
	}
}

// Expression returns the current expression source ("" = default average).
func (c *CSP) Expression() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.program == nil {
		return ""
	}
	return c.program.Source()
}

// childValue is one component read result.
type childValue struct {
	idx     int
	reading probe.Reading
	err     error
}

// readScratch holds the per-read working buffers, pooled so steady-state
// composite reads allocate nothing beyond the inherent per-read fan-out
// (goroutines + result channel on the parallel path).
type readScratch struct {
	children []childBinding
	results  []childValue
	slots    []float64
	hist     [][]float64
	histBuf  [][]float64
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// put clears references (accessors, readings) so pooled scratch does not
// retain child services, then recycles the buffers.
func (sc *readScratch) put() {
	for i := range sc.children {
		sc.children[i] = childBinding{}
	}
	sc.children = sc.children[:0]
	for i := range sc.results {
		sc.results[i] = childValue{}
	}
	sc.results = sc.results[:0]
	readScratchPool.Put(sc)
}

// GetValue implements DataAccessor: read every component (in parallel
// unless configured otherwise), bind variables, evaluate the expression.
// A component that fails, or a read that outlives readTimeout, fails the
// whole read, and a failed component is named in the error.
//
// Three paths, cheapest first: no expression → running-sum average with
// no expression machinery at all; slot-bound expression →
// BoundProgram.EvalFloats over pooled float64 slots (allocation-free);
// otherwise (an expression beyond the fast path) → the generic Env
// evaluator, which is the semantic reference.
func (c *CSP) GetValue() (probe.Reading, error) {
	sc := readScratchPool.Get().(*readScratch)
	c.mu.Lock()
	sc.children = append(sc.children[:0], c.children...)
	program := c.program
	histWanted := c.histWanted
	bound := c.bound
	histChild := c.histChild
	c.mu.Unlock()
	children := sc.children
	if len(children) == 0 {
		sc.put()
		return probe.Reading{}, fmt.Errorf("%w: %q", ErrNoChildren, c.name)
	}

	if cap(sc.results) < len(children) {
		sc.results = make([]childValue, len(children))
	}
	sc.results = sc.results[:len(children)]
	results := sc.results
	if c.sequential {
		for i, ch := range children {
			r, err := ch.accessor.GetValue()
			results[i] = childValue{idx: i, reading: r, err: err}
		}
	} else {
		// The result channel is per-read: a straggler outliving the
		// timeout writes into an abandoned buffer, never a pooled one.
		resCh := make(chan childValue, len(children))
		for i, ch := range children {
			go func(i int, acc DataAccessor) {
				r, err := acc.GetValue()
				resCh <- childValue{idx: i, reading: r, err: err}
			}(i, ch.accessor)
		}
		timer := c.clock.NewTimer(readTimeout)
		defer timer.Stop()
		for received := 0; received < len(children); received++ {
			select {
			case cv := <-resCh:
				results[cv.idx] = cv
			case <-timer.C():
				sc.put()
				return probe.Reading{}, fmt.Errorf("%w after %v in %q", ErrChildTimeout, readTimeout, c.name)
			}
		}
	}

	// Running sum and unit uniformity; the first failed component fails
	// the read.
	sum := 0.0
	unit, uniformUnit := results[0].reading.Unit, true
	for i := range children {
		if results[i].err != nil {
			err := fmt.Errorf("sensor: component %q (%s) of %q: %w",
				children[i].accessor.SensorName(), children[i].varName, c.name, results[i].err)
			sc.put()
			return probe.Reading{}, err
		}
		sum += results[i].reading.Value
		if results[i].reading.Unit != unit {
			uniformUnit = false
		}
	}

	var value float64
	switch {
	case program == nil:
		// Expressionless default: the running sum already is the answer.
		value = sum / float64(len(children))
	case bound != nil:
		v, err := c.evalBound(sc, bound, histChild)
		if err != nil {
			sc.put()
			return probe.Reading{}, fmt.Errorf("sensor: evaluating %q for %q: %w", program.Source(), c.name, err)
		}
		value = v
	default:
		v, err := c.evalEnv(sc, program, histWanted)
		if err != nil {
			sc.put()
			return probe.Reading{}, err
		}
		value = v
	}
	if !uniformUnit {
		unit = ""
	}
	r := probe.Reading{
		Sensor:    c.name,
		Kind:      "composite",
		Unit:      unit,
		Value:     value,
		Timestamp: c.clock.Now(),
	}
	c.store.Add(r)
	sc.put()
	return r, nil
}

// evalBound is the fast path: child values into pooled float64
// slots, history windows into pooled buffers, one EvalFloats call.
//
//lint:noalloc
func (c *CSP) evalBound(sc *readScratch, bound *expr.BoundProgram, histChild []bool) (float64, error) {
	slots := sc.slots[:0]
	for i := range sc.results {
		//lint:allocok amortized: the scratch slot slice is pooled and reaches a steady-state capacity after the first reads
		slots = append(slots, sc.results[i].reading.Value)
	}
	sc.slots = slots
	hist := sc.hist[:0]
	needHist := false
	for i := range sc.children {
		if i < len(histChild) && histChild[i] {
			needHist = true
			break
		}
	}
	if needHist {
		if cap(sc.histBuf) < len(sc.children) {
			//lint:allocok amortized: the pooled history buffer grows once to the composite's child count and is reused thereafter
			grown := make([][]float64, len(sc.children))
			copy(grown, sc.histBuf)
			sc.histBuf = grown
		}
		sc.histBuf = sc.histBuf[:len(sc.children)]
		for i := range sc.children {
			if !histChild[i] {
				//lint:allocok amortized: the scratch hist slice is pooled and reaches a steady-state capacity after the first reads
				hist = append(hist, nil)
				continue
			}
			// Oldest first, including the value just read — enabling
			// trend and smoothing expressions like "a - avg(a_hist)".
			buf := sc.histBuf[i][:0]
			if vh, ok := sc.children[i].accessor.(ValueHistory); ok {
				//lint:allocok amortized: AppendValues fills the pooled per-child buffer, which reaches window capacity after the first reads
				buf = vh.AppendValues(buf, HistoryWindow)
			} else {
				//lint:allocok cold fallback for accessors without ValueHistory; the in-process stores on the hot path all implement it
				for _, r := range sc.children[i].accessor.GetReadings(HistoryWindow) {
					//lint:allocok cold fallback for accessors without ValueHistory (see GetReadings above)
					buf = append(buf, r.Value)
				}
			}
			sc.histBuf[i] = buf
			//lint:allocok amortized: the scratch hist slice is pooled and reaches a steady-state capacity after the first reads
			hist = append(hist, buf)
		}
	}
	sc.hist = hist
	return bound.EvalFloats(slots, hist)
}

// evalEnv is the generic path for expressions the fast path cannot
// express. It is the reference semantics, including the eval-time
// "unbound variable" error.
func (c *CSP) evalEnv(sc *readScratch, program *expr.Program, histWanted map[string]bool) (float64, error) {
	env := expr.Env{}
	values := make([]float64, 0, len(sc.children))
	for i := range sc.children {
		v := sc.results[i].reading.Value
		env[sc.children[i].varName] = v
		values = append(values, v)
		if histWanted[sc.children[i].varName] {
			recent := sc.children[i].accessor.GetReadings(HistoryWindow)
			hist := make([]float64, len(recent))
			for j, r := range recent {
				hist[j] = r.Value
			}
			env[sc.children[i].varName+"_hist"] = hist
		}
	}
	env["values"] = values
	v, err := program.EvalNumber(env)
	if err != nil {
		return 0, fmt.Errorf("sensor: evaluating %q for %q: %w", program.Source(), c.name, err)
	}
	return v, nil
}

// GetReadings implements DataAccessor, returning previously computed
// composite values.
func (c *CSP) GetReadings(n int) []probe.Reading {
	return c.store.LastN(n)
}

// AppendValues implements ValueHistory over the composite's own store, so
// a parent CSP's fast path can bind this composite's history window
// without materializing Readings.
func (c *CSP) AppendValues(dst []float64, n int) []float64 {
	return c.store.AppendValues(dst, n)
}

// Describe implements DataAccessor.
func (c *CSP) Describe() probe.Info {
	return probe.Info{Name: c.name, Technology: "composite", Kind: "composite", Unit: ""}
}

// Service implements sorcer.Servicer with the standard sensor selectors.
func (c *CSP) Service(ex sorcer.Exertion, tx *txn.Transaction) (sorcer.Exertion, error) {
	return serveAccessor(c, ex, tx)
}

// Publish joins the CSP to every discovered lookup service with composite
// attributes, including the expression and composed-service list shown in
// the paper's browser panel.
func (c *CSP) Publish(clock clockwork.Clock, mgr *discovery.Manager, extra ...attr.Entry) *discovery.Join {
	attrs := attr.Set{
		attr.Name(c.name),
		attr.ServiceType(CategoryComposite),
		attr.ServiceInfo("SenSORCER", "CSP", "1.0"),
	}
	attrs = append(attrs, extra...)
	return sorcer.PublishServicer(clock, mgr, c, c.id, c.name, []string{AccessorType}, attrs)
}

var (
	_ DataAccessor    = (*CSP)(nil)
	_ ValueHistory    = (*CSP)(nil)
	_ sorcer.Servicer = (*CSP)(nil)
)
