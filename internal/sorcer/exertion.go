package sorcer

import (
	"fmt"
	"sync"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
)

// Signature identifies an operation on a service type — SORCER's service
// signature. A signature never names a concrete provider instance unless
// ProviderName is set; binding to an actual provider happens at exert time
// (federated method invocation).
type Signature struct {
	// ServiceType is the interface type name the provider must implement
	// (as registered in the lookup service), e.g. "SensorDataAccessor".
	ServiceType string
	// Selector is the operation name within the provider, e.g. "getValue".
	Selector string
	// ProviderName optionally pins a named provider ("Neem-Sensor").
	ProviderName string
	// Attributes add further lookup constraints.
	Attributes attr.Set
}

// String renders the signature like "getValue@SensorDataAccessor[Neem]".
func (s Signature) String() string {
	out := s.Selector + "@" + s.ServiceType
	if s.ProviderName != "" {
		out += "[" + s.ProviderName + "]"
	}
	return out
}

// Sig is a convenience constructor.
func Sig(serviceType, selector string) Signature {
	return Signature{ServiceType: serviceType, Selector: selector}
}

// Status tracks an exertion's execution state.
type Status int

// Exertion statuses.
const (
	Initial Status = iota
	Running
	Done
	Failed
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Initial:
		return "INITIAL"
	case Running:
		return "RUNNING"
	case Done:
		return "DONE"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Exertion is the common surface of tasks and jobs.
type Exertion interface {
	// ID is the exertion's unique identity.
	ID() ids.ServiceID
	// Name is the human label.
	Name() string
	// Context returns the exertion's service context.
	Context() *Context
	// Status returns the execution state.
	Status() Status
	// Err returns the failure cause when Status is Failed.
	Err() error
	// IsJob distinguishes composite from elementary exertions.
	IsJob() bool
}

// Task is an elementary exertion: one signature applied to one context by
// a single provider (or a small federation of equivalent providers, any of
// which may serve it).
type Task struct {
	id ids.ServiceID
	// key is id.String(), boxed once: the taskID field of the task's
	// envelope and result entries, and the Spacer's handle on it.
	key       any
	name      string
	signature Signature

	mu     sync.Mutex
	ctx    *Context
	status Status
	err    error
}

// NewTask creates a task with its own context.
func NewTask(name string, sig Signature, ctx *Context) *Task {
	if ctx == nil {
		ctx = NewContext()
	}
	id := ids.NewServiceID()
	return &Task{id: id, key: id.String(), name: name, signature: sig, ctx: ctx}
}

// ID implements Exertion.
func (t *Task) ID() ids.ServiceID { return t.id }

// Name implements Exertion.
func (t *Task) Name() string { return t.name }

// Signature returns the task's operation signature.
func (t *Task) Signature() Signature { return t.signature }

// Context implements Exertion.
func (t *Task) Context() *Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctx
}

// Status implements Exertion.
func (t *Task) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Err implements Exertion.
func (t *Task) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// IsJob implements Exertion.
func (t *Task) IsJob() bool { return false }

// FinishTask transitions a task executed outside a Provider (sensor
// services implement Servicer directly) into its terminal state: Done when
// err is nil, Failed otherwise.
func FinishTask(t *Task, ctx *Context, err error) {
	if err != nil {
		t.setResult(ctx, Failed, err)
		return
	}
	t.setResult(ctx, Done, nil)
}

func (t *Task) setResult(ctx *Context, status Status, err error) {
	t.mu.Lock()
	if ctx != nil {
		t.ctx = ctx
	}
	t.status = status
	t.err = err
	t.mu.Unlock()
}

// Flow selects how a job's component exertions execute.
type Flow int

// Flow kinds.
const (
	// Sequential runs component exertions in order, allowing context
	// pipes from earlier to later components.
	Sequential Flow = iota
	// Parallel runs components concurrently.
	Parallel
)

// Access selects how a job reaches providers.
type Access int

// Access kinds.
const (
	// Push dispatches each component directly to a looked-up provider
	// (Jobber coordination).
	Push Access = iota
	// Pull drops component tasks into the tuple space for any capable
	// worker to take (Spacer coordination).
	Pull
)

// Pipe connects an output path of one component exertion to an input path
// of a later one (only meaningful under Sequential flow).
type Pipe struct {
	FromIndex int
	FromPath  string
	ToIndex   int
	ToPath    string
}

// Strategy is a job's control strategy.
type Strategy struct {
	Flow   Flow
	Access Access
	Pipes  []Pipe
}

// Job is a composite exertion defined hierarchically over tasks and other
// jobs, executed by a rendezvous peer according to its control strategy.
type Job struct {
	id       ids.ServiceID
	name     string
	strategy Strategy

	mu        sync.Mutex
	exertions []Exertion
	// ctx is the aggregated context view, current while built == runs;
	// finish counts a run, and Context rebuilds the view on first use.
	ctx    *Context
	runs   uint64
	built  uint64
	status Status
	err    error
}

// NewJob creates a job over the component exertions.
func NewJob(name string, strategy Strategy, exertions ...Exertion) *Job {
	return &Job{
		id:        ids.NewServiceID(),
		name:      name,
		strategy:  strategy,
		exertions: exertions,
		ctx:       NewContext(),
	}
}

// ID implements Exertion.
func (j *Job) ID() ids.ServiceID { return j.id }

// Name implements Exertion.
func (j *Job) Name() string { return j.name }

// Strategy returns the job's control strategy.
func (j *Job) Strategy() Strategy { return j.strategy }

// Exertions snapshots the component exertions.
func (j *Job) Exertions() []Exertion {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Exertion{}, j.exertions...)
}

// Context implements Exertion: a job's context aggregates each component's
// context under "<component name>/". The view is built on the first call
// after a run and kept until the job runs again.
func (j *Job) Context() *Context {
	j.mu.Lock()
	if j.built == j.runs {
		ctx := j.ctx
		j.mu.Unlock()
		return ctx
	}
	runs := j.runs
	components := append([]Exertion(nil), j.exertions...)
	j.mu.Unlock()
	// Aggregated outside j.mu: a component job's Context takes its own.
	agg := aggregateContexts(components)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.runs != runs {
		return agg // the job ran again meanwhile: do not keep this view
	}
	if j.built != runs {
		j.ctx, j.built = agg, runs
	}
	return j.ctx
}

// Status implements Exertion.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err implements Exertion.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// IsJob implements Exertion.
func (j *Job) IsJob() bool { return true }

func (j *Job) setStatus(status Status, err error) {
	j.mu.Lock()
	j.status = status
	j.err = err
	j.mu.Unlock()
}

// finish ends a run of the job's components: the context view goes stale
// and the status becomes Done, or Failed with err.
func (j *Job) finish(err error) (Exertion, error) {
	j.mu.Lock()
	j.runs++
	if err != nil {
		j.status, j.err = Failed, err
	} else {
		j.status, j.err = Done, nil
	}
	j.mu.Unlock()
	return j, err
}

// aggregateContexts flattens component contexts into one, each path under
// "<component name>/".
func aggregateContexts(components []Exertion) *Context {
	agg := NewContext()
	for _, ex := range components {
		prefix := ex.Name() + "/"
		sub := ex.Context()
		sub.mu.RLock()
		for p, v := range sub.data {
			agg.data[prefix+p] = v
		}
		sub.mu.RUnlock()
	}
	return agg
}
