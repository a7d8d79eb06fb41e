package sorcer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
	"sensorcer/internal/txn"
)

// SpaceOps is the tuple-space surface pull-mode federation runs on: the
// operations Spacer and SpaceWorker use, lifted to an interface so a
// federation binds equally to one *space.Space or to a *repl.Router
// fronting a primary/backup pair — failover then looks like a transient
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
}

// Bounds on a Spacer's result waits; see await.
const (
	// maxAwaits caps how many times one task (or one parallel batch) is
	// waited for before the job fails.
	maxAwaits = 8
	// closedPause is how long a wait that found its space closed sleeps
	// before trying again, giving Rebind time to install the recovered one.
	closedPause = 20 * time.Millisecond
)

// SpacerOption customizes a Spacer.
type SpacerOption func(*Spacer)

// WithTaskTimeout sets the per-task result wait (default 10s).
func WithTaskTimeout(d time.Duration) SpacerOption {
	return func(s *Spacer) { s.taskTimeout = d }
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
// which pause and retry on ErrClosed — continue against the new space;
// recovered-but-untaken envelopes are simply taken by workers again, and
// lost ones are redispatched by the envelope-count check.
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
	return job.finish(err)
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
// couple of space operations instead of 2n. Lost tasks are redispatched
// under the same tag, again as one batch.
func (s *Spacer) runParallel(tasks []*Task, tx *txn.Transaction) error {
	var batchID any = ids.NewServiceID().String()
	pending := make(map[string]*Task, len(tasks))
	for _, t := range tasks {
		pending[t.key.(string)] = t
	}
	if err := s.dispatchBatch(tasks, batchID, tx); err != nil {
		return err
	}
	tmpl := space.NewEntry(ResultKind, "batchID", batchID)
	wait := func() error {
		for len(pending) > 0 {
			results, err := s.sp().TakeAny(tmpl, len(pending), tx, s.taskTimeout)
			if err != nil {
				return fmt.Errorf("sorcer: awaiting batch results: %w", err)
			}
			for _, res := range results {
				id, _ := res.Field("taskID").(string)
				t, ok := pending[id]
				if !ok {
					continue // duplicate from an at-least-once re-execution
				}
				if err := takeResult(t, res); err != nil {
					return err
				}
				delete(pending, id)
			}
		}
		return nil
	}
	redispatchLost := func() (int, error) {
		var lost []*Task
		for _, t := range pending {
			if !s.envelopeLive(t) {
				lost = append(lost, t)
			}
		}
		if len(lost) == 0 {
			return 0, nil
		}
		return len(lost), s.dispatchBatch(lost, batchID, tx)
	}
	return await(wait, redispatchLost)
}

// await runs wait under the Spacer's at-least-once contract: every task
// runs, and may run more than once. After a wait times out, redispatchLost
// puts back into play each outstanding task whose envelope vanished
// without a result — a worker crashed holding it, or the envelope itself
// was lost — and the wait starts over. If no envelope vanished, no worker
// took one, and the timeout is final: a job with no worker fails after one
// task timeout. A closed space pauses closedPause and retries, so a wait
// survives the crash-recovery cycle that Rebind completes. Any other error
// is final, and so is the maxAwaits-th failed wait. A worker's failure
// report is a result, not a lost task, so it is never retried; duplicate
// results from a re-execution are ignored by wait.
func await(wait func() error, redispatchLost func() (int, error)) error {
	err := wait()
	for n := 1; err != nil && n < maxAwaits; n++ {
		switch {
		case errors.Is(err, space.ErrTimeout):
		case errors.Is(err, space.ErrClosed):
			clockwork.Real().Sleep(closedPause)
		default:
			return err
		}
		resent, rerr := redispatchLost()
		switch {
		case rerr != nil:
			err = rerr
		case resent == 0 && errors.Is(err, space.ErrTimeout):
			return err
		default:
			err = wait()
		}
	}
	return err
}

// envelopeLive reports whether t's envelope is still in the space,
// waiting for a worker.
func (s *Spacer) envelopeLive(t *Task) bool {
	return s.sp().Count(space.NewEntry(EnvelopeKind, "taskID", t.key)) > 0
}

// takeResult applies a result envelope to the task it answers.
func takeResult(t *Task, res space.Entry) error {
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
}

// dispatchBatch writes one envelope per task, tagged with batchID. The
// space takes ownership of each envelope's field map; the values in it
// are boxed once per task (its key) or once per batch (the tag, and a
// signature the previous task shares).
func (s *Spacer) dispatchBatch(tasks []*Task, batchID any, tx *txn.Transaction) error {
	envs := make([]space.Entry, len(tasks))
	var typ, sel any
	for i, t := range tasks {
		if typ != t.signature.ServiceType {
			typ = t.signature.ServiceType
		}
		if sel != t.signature.Selector {
			sel = t.signature.Selector
		}
		envs[i] = space.NewEntry(EnvelopeKind,
			"type", typ,
			"selector", sel,
			"taskID", t.key,
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
		"taskID", t.key,
		"task", t,
	)
	if _, err := s.sp().Write(env, tx, s.envelopeLease); err != nil {
		return fmt.Errorf("sorcer: writing envelope for %q: %w", t.Name(), err)
	}
	return nil
}

func (s *Spacer) awaitResult(t *Task, tx *txn.Transaction) error {
	tmpl := space.NewEntry(ResultKind, "taskID", t.key)
	wait := func() error {
		res, err := s.sp().Take(tmpl, tx, s.taskTimeout)
		if err != nil {
			return fmt.Errorf("sorcer: awaiting result of %q: %w", t.Name(), err)
		}
		return takeResult(t, res)
	}
	redispatchLost := func() (int, error) {
		if s.envelopeLive(t) {
			return 0, nil
		}
		return 1, s.dispatch(t, tx)
	}
	return await(wait, redispatchLost)
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
			result := space.NewEntry(ResultKind, "taskID", task.key, "task", task)
			if batchID, _ := env.Field("batchID").(string); batchID != "" {
				result.Fields["batchID"] = env.Fields["batchID"] // boxed once per batch
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
