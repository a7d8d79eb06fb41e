package sorcer

import (
	"fmt"
	"sync"

	"sensorcer/internal/ids"
	"sensorcer/internal/txn"
)

// Jobber is the push-mode rendezvous peer: it coordinates a job's
// component exertions by dispatching each directly to a bound provider via
// the shared Exerter, honoring the job's flow (sequential with context
// pipes, or parallel).
type Jobber struct {
	id      ids.ServiceID
	name    string
	exerter *Exerter
}

// NewJobber creates a job coordinator that dispatches through exerter.
func NewJobber(name string, exerter *Exerter) *Jobber {
	return &Jobber{id: ids.NewServiceID(), name: name, exerter: exerter}
}

// ID returns the jobber's identity.
func (jb *Jobber) ID() ids.ServiceID { return jb.id }

// Name returns the jobber's name.
func (jb *Jobber) Name() string { return jb.name }

// Service implements Servicer for job exertions.
func (jb *Jobber) Service(ex Exertion, tx *txn.Transaction) (Exertion, error) {
	job, ok := ex.(*Job)
	if !ok {
		// A jobber can also relay a task straight to a provider.
		return jb.exerter.Exert(ex, tx)
	}
	job.setStatus(Running, nil)
	components := job.Exertions()

	var err error
	switch job.Strategy().Flow {
	case Sequential:
		err = jb.runSequential(job, components, tx)
	case Parallel:
		err = jb.runParallel(components, tx)
	default:
		err = fmt.Errorf("sorcer: unknown flow %d", job.Strategy().Flow)
	}
	return job.finish(err)
}

func (jb *Jobber) runSequential(job *Job, components []Exertion, tx *txn.Transaction) error {
	pipes := job.Strategy().Pipes
	for i, ex := range components {
		// Feed pipes targeting this component from earlier results.
		for _, p := range pipes {
			if p.ToIndex != i {
				continue
			}
			if p.FromIndex < 0 || p.FromIndex >= i {
				return fmt.Errorf("sorcer: job %q pipe from %d to %d is not backward", job.Name(), p.FromIndex, p.ToIndex)
			}
			v, ok := components[p.FromIndex].Context().Get(p.FromPath)
			if !ok {
				return fmt.Errorf("sorcer: job %q pipe source %q missing on %q", job.Name(), p.FromPath, components[p.FromIndex].Name())
			}
			ex.Context().Put(p.ToPath, v)
		}
		if _, err := jb.exerter.Exert(ex, tx); err != nil {
			return fmt.Errorf("sorcer: job %q component %q: %w", job.Name(), ex.Name(), err)
		}
	}
	return nil
}

func (jb *Jobber) runParallel(components []Exertion, tx *txn.Transaction) error {
	var wg sync.WaitGroup
	errs := make([]error, len(components))
	for i, ex := range components {
		wg.Add(1)
		go func(i int, ex Exertion) {
			defer wg.Done()
			_, errs[i] = jb.exerter.Exert(ex, tx)
		}(i, ex)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sorcer: parallel component %q: %w", components[i].Name(), err)
		}
	}
	return nil
}
