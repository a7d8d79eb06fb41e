package sorcer

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
)

func pullAdderJob(n int) *Job {
	var tasks []Exertion
	for i := 0; i < n; i++ {
		tasks = append(tasks, NewTask(fmt.Sprintf("t%d", i),
			Sig("Adder", "add"), NewContextFrom("arg/a", float64(i), "arg/b", 100.0)))
	}
	return NewJob("batch-job", Strategy{Flow: Parallel, Access: Pull}, tasks...)
}

func checkAdderJob(t *testing.T, job *Job, n int) {
	t.Helper()
	if job.Status() != Done {
		t.Fatalf("job status = %v", job.Status())
	}
	for i := 0; i < n; i++ {
		v, err := job.Context().Float(fmt.Sprintf("t%d/result/value", i))
		if err != nil || v != float64(i+100) {
			t.Fatalf("t%d result = %v, %v", i, v, err)
		}
	}
}

// TestSpacerBatchDispatchParallel runs the default batched path
// explicitly: all envelopes land via one WriteBatch, workers drain with
// TakeAny, and results come back tagged with the job's batch id.
func TestSpacerBatchDispatchParallel(t *testing.T) {
	sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer sp.Close()
	w := NewSpaceWorker(sp, adderProvider("Adder-1"), "Adder")
	defer w.Stop()
	spacer := NewSpacer("Spacer-1", sp, WithTaskTimeout(5*time.Second))

	job := pullAdderJob(8)
	if _, err := spacer.Service(job, nil); err != nil {
		t.Fatal(err)
	}
	checkAdderJob(t, job, 8)
	// Nothing left behind — every envelope taken, every result consumed.
	if n := sp.Count(space.NewEntry(EnvelopeKind)); n != 0 {
		t.Fatalf("%d envelopes left in space", n)
	}
	if n := sp.Count(space.NewEntry(ResultKind)); n != 0 {
		t.Fatalf("%d results left in space", n)
	}
}

// TestSpacerBatchDispatchDurable runs the batched path over a journaled
// space: envelopes and results are group-committed, and the job completes
// with the same results as the volatile case.
func TestSpacerBatchDispatchDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "space-wal")
	sp, l := recoverSpace(t, dir)
	defer func() { sp.Close(); _ = l.Close() }()
	w := NewSpaceWorker(sp, adderProvider("Adder-1"), "Adder")
	defer w.Stop()
	spacer := NewSpacer("Spacer-1", sp, WithTaskTimeout(5*time.Second))

	job := pullAdderJob(6)
	if _, err := spacer.Service(job, nil); err != nil {
		t.Fatal(err)
	}
	checkAdderJob(t, job, 6)
}

// TestSpacerBatchRedispatchLostEnvelopes exercises the batched
// at-least-once retry: a saboteur takes half the envelopes and never
// answers, the await times out, and the spacer redispatches exactly the
// lost tasks (as one batch) once a real worker is available.
func TestSpacerBatchRedispatchLostEnvelopes(t *testing.T) {
	sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer sp.Close()
	spacer := restartSpacer(sp) // 500ms waits

	job := pullAdderJob(4)
	done := make(chan error, 1)
	go func() {
		_, err := spacer.Service(job, nil)
		done <- err
	}()

	// Crash-simulating worker: take two envelopes and drop them.
	envTmpl := space.NewEntry(EnvelopeKind, "type", "Adder")
	if out, err := sp.TakeAny(envTmpl, 2, nil, 2*time.Second); err != nil || len(out) == 0 {
		t.Fatalf("saboteur got (%d, %v)", len(out), err)
	}
	// Healthy worker appears; lost tasks must be redispatched to it.
	w := NewSpaceWorker(sp, adderProvider("Adder-1"), "Adder")
	defer w.Stop()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job failed despite redispatch: %v", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("lost envelopes were never redispatched")
	}
	checkAdderJob(t, job, 4)
}
