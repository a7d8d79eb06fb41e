package sorcer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/resilience"
	"sensorcer/internal/space"
	"sensorcer/internal/txn"
)

// SpaceOps is the tuple-space surface pull-mode federation runs on: the
// operations Spacer and SpaceWorker use, lifted to an interface so a
// federation binds equally to one *space.Space or to a replicated,
// shard-routed *repl.Router — failover then looks like a transient
// retry instead of a rebind.
type SpaceOps interface {
	// Write stores one entry under a lease.
	Write(e space.Entry, tx *txn.Transaction, leaseDur time.Duration) (lease.Lease, error)
	// WriteBatch stores entries under one group commit.
	WriteBatch(entries []space.Entry, tx *txn.Transaction, leaseDur time.Duration) ([]lease.Lease, error)
	// Read blocks up to timeout for a match without removing it.
	Read(tmpl space.Entry, tx *txn.Transaction, timeout time.Duration) (space.Entry, error)
	// Take blocks up to timeout to remove and return a match.
	Take(tmpl space.Entry, tx *txn.Transaction, timeout time.Duration) (space.Entry, error)
	// TakeAny removes up to max matches, blocking for the first.
	TakeAny(tmpl space.Entry, max int, tx *txn.Transaction, timeout time.Duration) ([]space.Entry, error)
	// Count reports how many visible entries match.
	Count(tmpl space.Entry) int
}

// Space entry kinds used by pull-mode federation.
const (
	// EnvelopeKind marks task envelopes awaiting a worker.
	EnvelopeKind = "ExertionEnvelope"
	// ResultKind marks completed envelopes.
	ResultKind = "ResultEnvelope"
)

// Spacer is the pull-mode rendezvous peer: instead of binding providers
// itself, it drops each component task into the tuple space as an
// envelope; any SpaceWorker whose provider implements the signature type
// takes the envelope, executes, and writes back a result. This inverts the
// dispatch direction — workers pull work at their own pace, which is how
// SORCER balances load across heterogeneous providers.
type Spacer struct {
	id   ids.ServiceID
	name string
	// mu guards space, which Rebind swaps after a crash-recovery cycle:
	// jobs in flight pick up the recovered space on their next retry.
	mu    sync.Mutex
	space SpaceOps
	// taskTimeout bounds the wait for each result envelope.
	taskTimeout time.Duration
	// envelopeLease bounds how long an unclaimed envelope survives.
	envelopeLease time.Duration
	// await, when non-zero, governs result waits: on a timed-out wait the
	// spacer redispatches the task if its envelope is gone (a worker
	// crashed holding it, or the write was lost) and waits again. Pull
	// federation thereby gets at-least-once delivery; see WithAwaitPolicy.
	await resilience.Policy
}

// SpacerOption customizes a Spacer.
type SpacerOption func(*Spacer)

// WithTaskTimeout sets the per-task result wait (default 10s).
func WithTaskTimeout(d time.Duration) SpacerOption {
	return func(s *Spacer) { s.taskTimeout = d }
}

// WithAwaitPolicy retries timed-out result waits under the policy. Before
// each retry the spacer checks whether the task's envelope is still in the
// space: if it vanished without a result (worker crash mid-execution, lost
// write, expired lease) the task is redispatched. Tasks may therefore
// execute more than once — pull-mode semantics become at-least-once, the
// standard trade for liveness in tuple-space federations. Only timeouts
// are retried; a worker's clean failure report is final.
func WithAwaitPolicy(p resilience.Policy) SpacerOption {
	return func(s *Spacer) {
		if p.Retryable == nil {
			// ErrClosed is retryable alongside ErrTimeout so awaits survive
			// a durable space being closed for crash recovery: once Rebind
			// installs the recovered space, the retry proceeds against it
			// and redispatches any envelope the recovery did not preserve.
			p.Retryable = func(err error) bool {
				return errors.Is(err, space.ErrTimeout) || errors.Is(err, space.ErrClosed)
			}
		}
		s.await = p
	}
}

// NewSpacer creates a pull-mode coordinator over the tuple space (a
// single *space.Space or a replicated *repl.Router).
func NewSpacer(name string, sp SpaceOps, opts ...SpacerOption) *Spacer {
	s := &Spacer{
		id:            ids.NewServiceID(),
		name:          name,
		space:         sp,
		taskTimeout:   10 * time.Second,
		envelopeLease: time.Minute,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// ID returns the spacer's identity.
func (s *Spacer) ID() ids.ServiceID { return s.id }

// sp returns the current tuple space.
func (s *Spacer) sp() SpaceOps {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.space
}

// Rebind points the spacer at a recovered tuple space after the previous
// one was closed by a crash (or an orderly restart). In-flight awaits —
// retrying on ErrClosed under the await policy — continue against the new
// space; recovered-but-untaken envelopes are simply taken by workers
// again, and lost ones are redispatched by the envelope-count check.
// (A Spacer bound to a repl.Router never needs Rebind: the router
// re-routes to the promoted primary internally.)
func (s *Spacer) Rebind(sp SpaceOps) {
	s.mu.Lock()
	s.space = sp
	s.mu.Unlock()
}

// Name returns the spacer's name.
func (s *Spacer) Name() string { return s.name }

// Service implements Servicer for pull-mode jobs. Sequential flow feeds
// envelopes one at a time (honoring pipes); parallel flow floods all
// envelopes and collects results as they land.
func (s *Spacer) Service(ex Exertion, tx *txn.Transaction) (Exertion, error) {
	job, ok := ex.(*Job)
	if !ok {
		return ex, fmt.Errorf("sorcer: spacer coordinates jobs, got %T", ex)
	}
	job.setStatus(Running, nil)
	components := job.Exertions()
	tasks := make([]*Task, len(components))
	for i, c := range components {
		t, ok := c.(*Task)
		if !ok {
			err := fmt.Errorf("sorcer: pull-mode job %q component %q is not a task", job.Name(), c.Name())
			job.setStatus(Failed, err)
			return job, err
		}
		tasks[i] = t
	}

	var err error
	if job.Strategy().Flow == Sequential {
		err = s.runSequential(job, tasks, tx)
	} else {
		err = s.runParallel(tasks, tx)
	}
	job.aggregateContexts()
	if err != nil {
		job.setStatus(Failed, err)
		return job, err
	}
	job.setStatus(Done, nil)
	return job, nil
}

func (s *Spacer) runSequential(job *Job, tasks []*Task, tx *txn.Transaction) error {
	pipes := job.Strategy().Pipes
	for i, t := range tasks {
		for _, p := range pipes {
			if p.ToIndex != i {
				continue
			}
			if p.FromIndex < 0 || p.FromIndex >= i {
				return fmt.Errorf("sorcer: job %q pipe from %d to %d is not backward", job.Name(), p.FromIndex, p.ToIndex)
			}
			v, ok := tasks[p.FromIndex].Context().Get(p.FromPath)
			if !ok {
				return fmt.Errorf("sorcer: job %q pipe source %q missing", job.Name(), p.FromPath)
			}
			t.Context().Put(p.ToPath, v)
		}
		if err := s.dispatch(t, tx); err != nil {
			return err
		}
		if err := s.awaitResult(t, tx); err != nil {
			return err
		}
	}
	return nil
}

// runParallel floods every component envelope into the space as one
// WriteBatch (one lock, one journal group commit) and collects results
// with TakeAny against a job-unique batch tag, so an n-task job costs a
// couple of space operations instead of 2n. The at-least-once contract is
// unchanged: on a timed-out attempt, every pending task whose envelope
// vanished without a result is redispatched — again as one batch.
func (s *Spacer) runParallel(tasks []*Task, tx *txn.Transaction) error {
	batchID := ids.NewServiceID().String()
	pending := make(map[string]*Task, len(tasks))
	for _, t := range tasks {
		pending[t.ID().String()] = t
	}
	if err := s.dispatchBatch(tasks, batchID, tx); err != nil {
		return err
	}
	tmpl := space.NewEntry(ResultKind, "batchID", batchID)
	return s.await.Run(func(a resilience.Attempt) error {
		if a.N > 1 {
			var lost []*Task
			for id, t := range pending {
				if s.sp().Count(space.NewEntry(EnvelopeKind, "taskID", id)) == 0 {
					lost = append(lost, t)
				}
			}
			if len(lost) > 0 {
				if err := s.dispatchBatch(lost, batchID, tx); err != nil {
					return err
				}
			}
		}
		timeout := a.Timeout
		if timeout <= 0 {
			timeout = s.taskTimeout
		}
		for len(pending) > 0 {
			results, err := s.sp().TakeAny(tmpl, len(pending), tx, timeout)
			if err != nil {
				return fmt.Errorf("sorcer: awaiting batch results: %w", err)
			}
			for _, res := range results {
				id, _ := res.Field("taskID").(string)
				t, ok := pending[id]
				if !ok {
					continue // duplicate from an at-least-once re-execution
				}
				if failMsg, _ := res.Field("error").(string); failMsg != "" {
					return fmt.Errorf("sorcer: task %q failed in space: %s", t.Name(), failMsg)
				}
				if rt, ok := res.Field("task").(*Task); ok && rt != t {
					t.Context().Merge(rt.Context())
					FinishTask(t, nil, nil)
				}
				delete(pending, id)
			}
		}
		return nil
	})
}

func (s *Spacer) dispatchBatch(tasks []*Task, batchID string, tx *txn.Transaction) error {
	envs := make([]space.Entry, len(tasks))
	for i, t := range tasks {
		envs[i] = space.NewEntry(EnvelopeKind,
			"type", t.Signature().ServiceType,
			"selector", t.Signature().Selector,
			"taskID", t.ID().String(),
			"batchID", batchID,
			"task", t,
		)
	}
	if _, err := s.sp().WriteBatch(envs, tx, s.envelopeLease); err != nil {
		return fmt.Errorf("sorcer: writing %d envelope(s): %w", len(envs), err)
	}
	return nil
}

func (s *Spacer) dispatch(t *Task, tx *txn.Transaction) error {
	env := space.NewEntry(EnvelopeKind,
		"type", t.Signature().ServiceType,
		"selector", t.Signature().Selector,
		"taskID", t.ID().String(),
		"task", t,
	)
	if _, err := s.sp().Write(env, tx, s.envelopeLease); err != nil {
		return fmt.Errorf("sorcer: writing envelope for %q: %w", t.Name(), err)
	}
	return nil
}

func (s *Spacer) awaitResult(t *Task, tx *txn.Transaction) error {
	return s.await.Run(func(a resilience.Attempt) error {
		if a.N > 1 {
			// Retry: if the envelope is gone but no result ever arrived,
			// the worker (or the envelope itself) was lost mid-flight —
			// put the task back into play.
			envTmpl := space.NewEntry(EnvelopeKind, "taskID", t.ID().String())
			if s.sp().Count(envTmpl) == 0 {
				if err := s.dispatch(t, tx); err != nil {
					return err
				}
			}
		}
		timeout := a.Timeout
		if timeout <= 0 {
			timeout = s.taskTimeout
		}
		tmpl := space.NewEntry(ResultKind, "taskID", t.ID().String())
		res, err := s.sp().Take(tmpl, tx, timeout)
		if err != nil {
			return fmt.Errorf("sorcer: awaiting result of %q: %w", t.Name(), err)
		}
		if failMsg, _ := res.Field("error").(string); failMsg != "" {
			return fmt.Errorf("sorcer: task %q failed in space: %s", t.Name(), failMsg)
		}
		if rt, ok := res.Field("task").(*Task); ok && rt != t {
			// The worker executed a copy of the task — it decoded the
			// envelope from a recovered durable space, where pointer
			// identity does not survive. Graft the copy's outputs onto our
			// instance so the job's aggregated context is complete.
			t.Context().Merge(rt.Context())
			FinishTask(t, nil, nil)
		}
		return nil
	})
}

// SpaceWorker pulls envelopes for one service type from the space and
// executes them against its servicer — the worker side of pull-mode
// federation. Attach one to each provider that should serve space jobs.
type SpaceWorker struct {
	space       SpaceOps
	servicer    Servicer
	serviceType string
	stop        chan struct{}
	done        chan struct{}
}

// workerBatch is how many envelopes a worker takes per space visit (and
// how many results it writes back as one batch), amortizing the space's
// lock and — on a durable space — its journal fsync across the batch.
// Envelopes in a batch still execute sequentially, so a worker never
// holds more work than it can finish before its results land.
const workerBatch = 8

// NewSpaceWorker starts a worker pulling envelopes of serviceType.
func NewSpaceWorker(sp SpaceOps, servicer Servicer, serviceType string) *SpaceWorker {
	w := &SpaceWorker{
		space:       sp,
		servicer:    servicer,
		serviceType: serviceType,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go w.loop()
	return w
}

// Stop halts the worker after its current envelope.
func (w *SpaceWorker) Stop() {
	close(w.stop)
	<-w.done
}

func (w *SpaceWorker) loop() {
	defer close(w.done)
	tmpl := space.NewEntry(EnvelopeKind, "type", w.serviceType)
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		envs, err := w.space.TakeAny(tmpl, workerBatch, nil, 50*time.Millisecond)
		if err != nil {
			if errors.Is(err, space.ErrClosed) {
				return
			}
			continue // timeout: poll the stop channel again
		}
		results := make([]space.Entry, 0, len(envs))
		for _, env := range envs {
			task, ok := env.Field("task").(*Task)
			if !ok {
				continue // malformed envelope
			}
			_, execErr := w.servicer.Service(task, nil)
			// The executed task rides along so a spacer holding a different
			// instance (envelope recovered from a durable space) still gets
			// the outputs. The batch tag rides along too, so a spacer
			// awaiting a whole batch sees this result.
			result := space.NewEntry(ResultKind, "taskID", task.ID().String(), "task", task)
			if batchID, _ := env.Field("batchID").(string); batchID != "" {
				result.Fields["batchID"] = batchID
			}
			if execErr != nil {
				result.Fields["error"] = execErr.Error()
			}
			results = append(results, result)
		}
		// Best effort: if the space is closing, the spacer times out.
		if len(results) > 0 {
			_, _ = w.space.WriteBatch(results, nil, time.Minute)
		}
	}
}
