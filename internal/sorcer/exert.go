package sorcer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sensorcer/internal/ids"
	"sensorcer/internal/resilience"
	"sensorcer/internal/txn"
)

// Rendezvous peer type names.
const (
	// JobberType marks push-mode job coordinators.
	JobberType = "Jobber"
	// SpacerType marks pull-mode job coordinators.
	SpacerType = "Spacer"
)

// maxBindings caps how many equivalent providers a failing task is
// retried against per bind cycle.
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
	// breakers, when set, tracks a circuit breaker per provider so a
	// repeatedly failing peer is skipped outright instead of burning a
	// binding slot on every exertion; see WithBreakers. brCache memoizes
	// the provider→Breaker resolution off the bind hot path.
	breakers *resilience.BreakerSet
	brCache  sync.Map
	// rebind, when non-zero, re-runs the whole discover-and-bind cycle
	// after all current candidates fail — a crashed federation member may
	// be replaced by a freshly registered equivalent between attempts.
	rebind resilience.Policy
}

// ExertOption customizes an Exerter.
type ExertOption func(*Exerter)

// WithBreakers tracks per-provider circuit breakers: candidates whose
// breaker is open are skipped during binding, and every service outcome
// feeds the provider's breaker. A provider that keeps failing stops being
// tried until its cooldown elapses and a half-open probe succeeds.
func WithBreakers(bs *resilience.BreakerSet) ExertOption {
	return func(e *Exerter) { e.breakers = bs }
}

// WithRebindPolicy retries the whole discover-and-bind cycle under the
// policy when every candidate in a pass fails. Between attempts new
// equivalent providers may have registered (or a breaker may have
// half-opened), so each attempt sees fresh candidates. ErrNoProvider is
// still retried — a provider may simply not have joined yet.
func WithRebindPolicy(p resilience.Policy) ExertOption {
	return func(e *Exerter) { e.rebind = p }
}

// NewExerter creates an FMI executor over the accessor.
func NewExerter(accessor *Accessor, opts ...ExertOption) *Exerter {
	e := &Exerter{accessor: accessor}
	for _, o := range opts {
		o(e)
	}
	return e
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

// providerID is the service ID a provider reports, zero when it has none.
func providerID(svc Servicer) ids.ServiceID {
	if ider, ok := svc.(interface{ ID() ids.ServiceID }); ok {
		return ider.ID()
	}
	return ids.ServiceID{}
}

// breakerFor resolves a candidate's breaker: keyed by its service ID when
// it has one — which a remote stub takes from its registration — and by
// its pointer identity otherwise. The result is memoized under the same
// identity, so the no-fault bind path skips the key formatting and set
// lock after the first exertion against a provider, and the stubs a remote
// lookup mints afresh every time share their provider's one entry instead
// of each pinning a new one. A nil breaker set costs nothing at all.
func (e *Exerter) breakerFor(svc Servicer) *resilience.Breaker {
	if e.breakers == nil {
		return nil
	}
	id := providerID(svc)
	var memo any = id
	if id.IsZero() {
		memo = svc
	}
	if br, ok := e.brCache.Load(memo); ok {
		return br.(*resilience.Breaker)
	}
	key := id.String()
	if id.IsZero() {
		key = fmt.Sprintf("%p", svc)
	}
	br := e.breakers.For(key)
	e.brCache.Store(memo, br)
	return br
}

func (e *Exerter) exertTask(task *Task, tx *txn.Transaction) (Exertion, error) {
	var out Exertion
	err := e.rebind.Run(func(resilience.Attempt) error {
		res, err := e.bindOnce(task, tx)
		if err == nil {
			out = res
		}
		return err
	})
	if err != nil {
		task.setResult(nil, Failed, err)
		return task, err
	}
	return out, nil
}

// bindOnce runs one discover-and-bind pass: find candidates, rotate, try
// each non-open one in turn.
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
	skipped := 0
	for _, svc := range candidates {
		br := e.breakerFor(svc)
		if err := br.Allow(); err != nil {
			// Open breaker: this provider has been failing; spend the
			// binding on an equivalent one instead.
			skipped++
			lastErr = err
			continue
		}
		res, err := svc.Service(task, tx)
		br.Record(err)
		if err == nil {
			return res, nil
		}
		// Any failure — execution fault or a provider that implements
		// the type but not this selector — re-binds to the next
		// equivalent provider; providers of one type need not implement
		// identical operation sets.
		lastErr = err
	}
	return nil, fmt.Errorf("sorcer: all %d binding(s) failed (%d breaker-skipped) for %s: %w",
		len(candidates), skipped, task.Signature(), lastErr)
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

// BreakerStates exposes the per-provider breaker states (nil map when no
// breaker set is installed) for dashboards and tests.
func (e *Exerter) BreakerStates() map[string]resilience.BreakerState {
	if e.breakers == nil {
		return nil
	}
	return e.breakers.States()
}
