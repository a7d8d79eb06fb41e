package sorcer

import (
	"fmt"
	"sync/atomic"

	"sensorcer/internal/txn"
)

// Rendezvous peer type names.
const (
	// JobberType marks push-mode job coordinators.
	JobberType = "Jobber"
	// SpacerType marks pull-mode job coordinators.
	SpacerType = "Spacer"
)

// maxBindings caps how many equivalent providers one task exertion tries.
const maxBindings = 4

// Exerter implements federated method invocation (FMI): Exert binds an
// exertion to currently available providers and runs it. Tasks bind to a
// provider of the signature's type, retrying equivalent providers on
// failure ("if for any reason a particular sensor service is not
// available, the request can be passed on to the equivalent available
// service provider", §V-A). Jobs route to a rendezvous peer — a Jobber for
// push access, a Spacer for pull access — falling back to an in-process
// Jobber when no rendezvous peer is registered.
type Exerter struct {
	accessor *Accessor
	// rr rotates the starting candidate so equivalent providers share
	// load across successive exertions (the federation has no global
	// queue-depth view; round-robin is the classic blind spreading).
	rr atomic.Uint64
}

// NewExerter creates an FMI executor over the accessor.
func NewExerter(accessor *Accessor) *Exerter {
	return &Exerter{accessor: accessor}
}

// Exert runs the exertion and returns it with result state and contexts
// filled in — the paper's Exertion.exert(Transaction) operation. The
// returned error mirrors Exertion.Err for convenience.
func (e *Exerter) Exert(ex Exertion, tx *txn.Transaction) (Exertion, error) {
	switch x := ex.(type) {
	case *Task:
		return e.exertTask(x, tx)
	case *Job:
		return e.exertJob(x, tx)
	default:
		return ex, fmt.Errorf("sorcer: cannot exert %T", ex)
	}
}

func (e *Exerter) exertTask(task *Task, tx *txn.Transaction) (Exertion, error) {
	res, err := e.bindOnce(task, tx)
	if err != nil {
		task.setResult(nil, Failed, err)
		return task, err
	}
	return res, nil
}

// bindOnce runs one discover-and-bind pass: find candidates, rotate, try
// each in turn.
func (e *Exerter) bindOnce(task *Task, tx *txn.Transaction) (Exertion, error) {
	candidates, err := e.accessor.FindAll(task.Signature(), maxBindings)
	if err != nil {
		return nil, err
	}
	if len(candidates) > 1 {
		// Rotate the starting point across calls.
		start := int(e.rr.Add(1)) % len(candidates)
		rotated := make([]Servicer, 0, len(candidates))
		rotated = append(rotated, candidates[start:]...)
		rotated = append(rotated, candidates[:start]...)
		candidates = rotated
	}
	var lastErr error
	for _, svc := range candidates {
		res, err := svc.Service(task, tx)
		if err == nil {
			return res, nil
		}
		// Any failure — execution fault or a provider that implements
		// the type but not this selector — re-binds to the next
		// equivalent provider; providers of one type need not implement
		// identical operation sets.
		lastErr = err
	}
	return nil, fmt.Errorf("sorcer: all %d binding(s) failed for %s: %w",
		len(candidates), task.Signature(), lastErr)
}

func (e *Exerter) exertJob(job *Job, tx *txn.Transaction) (Exertion, error) {
	rendezvousType := JobberType
	if job.Strategy().Access == Pull {
		rendezvousType = SpacerType
	}
	sig := Signature{ServiceType: rendezvousType, Selector: "execute"}
	if svc, err := e.accessor.Find(sig); err == nil {
		return svc.Service(job, tx)
	}
	if job.Strategy().Access == Pull {
		err := fmt.Errorf("%w: no %s available for pull-mode job %q", ErrNoProvider, SpacerType, job.Name())
		job.setStatus(Failed, err)
		return job, err
	}
	// Fall back to coordinating the push job locally.
	local := NewJobber("local-jobber", e)
	return local.Service(job, tx)
}
