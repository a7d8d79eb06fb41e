package sorcer

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
	"sensorcer/internal/wal"
)

// recoverSpace opens (or reopens) the durable space journaled in dir.
func recoverSpace(t *testing.T, dir string) (*space.Space, *wal.Log) {
	t.Helper()
	l, err := wal.Open(dir, wal.WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := space.Recover(clockwork.Real(), lease.Policy{Max: time.Hour}, l)
	if err != nil {
		t.Fatal(err)
	}
	return sp, l
}

// restartSpacer returns a spacer with short result waits; its awaits ride
// out a space restart, retrying closed-space errors until Rebind installs
// the recovered space.
func restartSpacer(sp *space.Space) *Spacer {
	return NewSpacer("Spacer-1", sp, WithTaskTimeout(500*time.Millisecond))
}

func awaitEnvelopes(t *testing.T, sp *space.Space, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sp.Count(space.NewEntry(EnvelopeKind)) < want {
		if time.Now().After(deadline) {
			t.Fatalf("envelopes never reached %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpacerJobCompletesAcrossSpaceRestart kills the durable exertion
// space while a pull-mode job's envelopes are waiting in it — no worker
// has taken them yet — then recovers the space from its journal, rebinds
// the spacer, and only then starts workers. The recovered envelopes (with
// their task payloads rebuilt by the task codec) must be served and the
// job must complete end-to-end with correct results.
func TestSpacerJobCompletesAcrossSpaceRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "space-wal")
	sp, l := recoverSpace(t, dir)
	spacer := restartSpacer(sp)

	var tasks []Exertion
	for i := 0; i < 3; i++ {
		tasks = append(tasks, NewTask(fmt.Sprintf("t%d", i),
			Sig("Adder", "add"), NewContextFrom("arg/a", float64(i), "arg/b", 100.0)))
	}
	job := NewJob("restart-job", Strategy{Flow: Parallel, Access: Pull}, tasks...)

	done := make(chan error, 1)
	go func() {
		_, err := spacer.Service(job, nil)
		done <- err
	}()

	// All three envelopes written and journaled; no worker is running, so
	// they are still in the space. Crash it.
	awaitEnvelopes(t, sp, 3)
	sp.Close()
	_ = l.Close()

	// Recover, rebind, and only now provide workers.
	sp2, l2 := recoverSpace(t, dir)
	defer func() { sp2.Close(); _ = l2.Close() }()
	if n := sp2.Count(space.NewEntry(EnvelopeKind)); n != 3 {
		t.Fatalf("recovered %d envelopes, want 3", n)
	}
	spacer.Rebind(sp2)
	w := NewSpaceWorker(sp2, adderProvider("Adder-1"), "Adder")
	defer w.Stop()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job failed across restart: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete after space recovery")
	}
	if job.Status() != Done {
		t.Fatalf("job status = %v", job.Status())
	}
	for i := 0; i < 3; i++ {
		v, err := job.Context().Float(fmt.Sprintf("t%d/result/value", i))
		if err != nil || v != float64(i+100) {
			t.Fatalf("t%d result = %v, %v", i, v, err)
		}
	}
}

// TestSpacerRedispatchAfterSpaceRestart covers the other
// recovery path: a worker takes the envelope (the take is journaled, so
// the entry is durably gone) and dies before producing a result. After
// the space restarts, the envelope is absent — the spacer's await retry
// notices and redispatches the task.
func TestSpacerRedispatchAfterSpaceRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "space-wal")
	sp, l := recoverSpace(t, dir)
	spacer := restartSpacer(sp)

	task := NewTask("t0", Sig("Adder", "add"), NewContextFrom("arg/a", 7.0, "arg/b", 3.0))
	job := NewJob("redispatch-job", Strategy{Flow: Parallel, Access: Pull}, task)

	done := make(chan error, 1)
	go func() {
		_, err := spacer.Service(job, nil)
		done <- err
	}()

	// A doomed worker takes the envelope and crashes with it: the take is
	// durable, the result never arrives.
	awaitEnvelopes(t, sp, 1)
	if _, err := sp.Take(space.NewEntry(EnvelopeKind), nil, time.Second); err != nil {
		t.Fatal(err)
	}
	sp.Close()
	_ = l.Close()

	sp2, l2 := recoverSpace(t, dir)
	defer func() { sp2.Close(); _ = l2.Close() }()
	if n := sp2.Count(space.NewEntry(EnvelopeKind)); n != 0 {
		t.Fatalf("taken envelope resurrected: %d", n)
	}
	spacer.Rebind(sp2)
	w := NewSpaceWorker(sp2, adderProvider("Adder-1"), "Adder")
	defer w.Stop()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job failed after worker loss: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("task was never redispatched")
	}
	if v, err := job.Context().Float("t0/result/value"); err != nil || v != 10 {
		t.Fatalf("result = %v, %v", v, err)
	}
}
