package sorcer

import (
	"errors"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
)

// flows names the two ways a Spacer runs a job's tasks.
var flows = []struct {
	name string
	flow Flow
}{{"parallel", Parallel}, {"sequential", Sequential}}

// fakeSpacer returns a tuple space on a fake clock and a Spacer built over
// it the way every deployment builds one: with no options.
func fakeSpacer() (*clockwork.Fake, *space.Space, *Spacer) {
	fake := clockwork.NewFake(epoch)
	sp := space.New(fake, lease.Policy{Max: time.Hour})
	return fake, sp, NewSpacer("Spacer-1", sp)
}

// serveAsync runs a one-task pull job through the spacer and reports how
// it ended.
func serveAsync(spacer *Spacer, flow Flow) (*Job, <-chan error) {
	job := NewJob("pull-job", Strategy{Flow: flow, Access: Pull},
		NewTask("t0", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 2.0)))
	done := make(chan error, 1)
	go func() {
		_, err := spacer.Service(job, nil)
		done <- err
	}()
	return job, done
}

// awaitTimers blocks until n timers are armed on the fake clock, that is,
// until every goroutine under test is parked in its wait.
func awaitTimers(t *testing.T, fake *clockwork.Fake, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fake.PendingTimers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d timer(s) armed, want %d", fake.PendingTimers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func awaitDone(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("pull job hung")
		return nil
	}
}

// TestSpacerRedispatchesEnvelopeLostToCrashedWorker pins the Spacer's
// at-least-once default: a worker takes the envelope and dies holding it,
// and when the result wait times out the spacer finds the envelope gone
// and redispatches the task to a healthy worker.
func TestSpacerRedispatchesEnvelopeLostToCrashedWorker(t *testing.T) {
	for _, f := range flows {
		t.Run(f.name, func(t *testing.T) {
			fake, sp, spacer := fakeSpacer()
			job, done := serveAsync(spacer, f.flow)

			// Once the spacer waits on its result, a doomed worker takes
			// the envelope; no result is ever written for it.
			awaitTimers(t, fake, 1)
			if _, err := sp.Take(space.NewEntry(EnvelopeKind, "type", "Adder"), nil, 0); err != nil {
				t.Fatalf("doomed worker found no envelope: %v", err)
			}
			w := NewSpaceWorker(sp, adderProvider("Adder-1"), "Adder")
			defer func() { sp.Close(); w.Stop() }()

			// The spacer's result wait and the healthy worker's poll.
			awaitTimers(t, fake, 2)
			fake.Advance(spacer.taskTimeout)
			if err := awaitDone(t, done); err != nil {
				t.Fatalf("pull job failed despite redispatch: %v", err)
			}
			if v, err := job.Context().Float("t0/result/value"); err != nil || v != 3 {
				t.Fatalf("result = %v, %v", v, err)
			}
		})
	}
}

// TestSpacerWithNoWorkerFailsAfterOneTimeout checks that redispatch costs
// a job nobody serves nothing: its envelope is still in the space, so
// after one task timeout the job fails with space.ErrTimeout and the
// envelope is not written again.
func TestSpacerWithNoWorkerFailsAfterOneTimeout(t *testing.T) {
	for _, f := range flows {
		t.Run(f.name, func(t *testing.T) {
			fake, sp, spacer := fakeSpacer()
			defer sp.Close()
			_, done := serveAsync(spacer, f.flow)

			awaitTimers(t, fake, 1)
			fake.Advance(spacer.taskTimeout)
			if err := awaitDone(t, done); !errors.Is(err, space.ErrTimeout) {
				t.Fatalf("job with no worker ended with %v, want %v", err, space.ErrTimeout)
			}
			if n := sp.Count(space.NewEntry(EnvelopeKind)); n != 1 {
				t.Fatalf("%d envelopes in the space, want the one never taken", n)
			}
		})
	}
}
