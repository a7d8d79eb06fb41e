package sorcer

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/space"
	"sensorcer/internal/txn"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

// rig is a one-LUS federation for tests.
type rig struct {
	bus      *discovery.Bus
	lus      *registry.LookupService
	mgr      *discovery.Manager
	accessor *Accessor
	exerter  *Exerter
	joins    []*discovery.Join
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{bus: discovery.NewBus()}
	r.lus = registry.New("test-lus", clockwork.NewFake(epoch))
	cancel := r.bus.Announce(r.lus)
	r.mgr = discovery.NewManager(r.bus)
	r.accessor = NewAccessor(r.mgr)
	r.exerter = NewExerter(r.accessor)
	t.Cleanup(func() {
		for _, j := range r.joins {
			j.Terminate()
		}
		r.mgr.Terminate()
		cancel()
		r.lus.Close()
	})
	return r
}

func (r *rig) publish(t *testing.T, p *Provider) {
	t.Helper()
	j := p.Publish(clockwork.Real(), r.mgr, nil)
	r.joins = append(r.joins, j)
}

// adderProvider implements an "Adder" service type with an "add" op.
func adderProvider(name string) *Provider {
	p := NewProvider(name, "Adder")
	p.RegisterOp("add", func(ctx *Context) error {
		a, err := ctx.Float("arg/a")
		if err != nil {
			return err
		}
		b, err := ctx.Float("arg/b")
		if err != nil {
			return err
		}
		ctx.Put("result/value", a+b)
		return nil
	})
	return p
}

func TestExertTask(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))

	task := NewTask("add", Sig("Adder", "add"), NewContextFrom("arg/a", 3.0, "arg/b", 4.0))
	res, err := r.exerter.Exert(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status() != Done {
		t.Fatalf("status = %v", res.Status())
	}
	v, err := res.Context().Float("result/value")
	if err != nil || v != 7 {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestExertTaskByProviderName(t *testing.T) {
	r := newRig(t)
	one := adderProvider("Adder-1")
	two := NewProvider("Adder-2", "Adder")
	two.RegisterOp("add", func(ctx *Context) error {
		ctx.Put("result/value", -1.0) // wrong on purpose, to detect binding
		return nil
	})
	r.publish(t, one)
	r.publish(t, two)

	sig := Sig("Adder", "add")
	sig.ProviderName = "Adder-2"
	task := NewTask("add", sig, NewContextFrom("arg/a", 1.0, "arg/b", 1.0))
	res, err := r.exerter.Exert(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Context().Float("result/value"); v != -1 {
		t.Fatal("ProviderName pin not honored")
	}
}

func TestExertNoProvider(t *testing.T) {
	r := newRig(t)
	task := NewTask("x", Sig("Missing", "op"), nil)
	_, err := r.exerter.Exert(task, nil)
	if !errors.Is(err, ErrNoProvider) {
		t.Fatalf("err = %v", err)
	}
	if task.Status() != Failed {
		t.Fatalf("status = %v", task.Status())
	}
}

func TestExertUnknownSelector(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	task := NewTask("x", Sig("Adder", "subtract"), nil)
	if _, err := r.exerter.Exert(task, nil); !errors.Is(err, ErrUnknownSelector) {
		t.Fatalf("err = %v", err)
	}
}

// flakyProvider fails the first n invocations.
func flakyProvider(name string, failures int) *Provider {
	p := NewProvider(name, "Flaky")
	var count atomic.Int64
	p.RegisterOp("run", func(ctx *Context) error {
		if count.Add(1) <= int64(failures) {
			return errors.New("transient fault")
		}
		ctx.Put("by", name)
		return nil
	})
	return p
}

func TestFMIRebindsOnFailure(t *testing.T) {
	// The failing provider is tried, errors, and the exerter moves to an
	// equivalent provider — the paper's §V-A re-binding behaviour.
	r := newRig(t)
	r.publish(t, flakyProvider("Flaky-1", 1_000_000)) // always fails
	r.publish(t, flakyProvider("Flaky-2", 0))         // always works

	task := NewTask("run", Sig("Flaky", "run"), nil)
	res, err := r.exerter.Exert(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if by, _ := res.Context().Get("by"); by != "Flaky-2" {
		t.Fatalf("served by %v, want the healthy provider", by)
	}
}

func TestFMIAllBindingsFail(t *testing.T) {
	r := newRig(t)
	r.publish(t, flakyProvider("Flaky-1", 1_000_000))
	task := NewTask("run", Sig("Flaky", "run"), nil)
	_, err := r.exerter.Exert(task, nil)
	if err == nil || !strings.Contains(err.Error(), "binding(s) failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalJobberSequentialWithPipes(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))

	t1 := NewTask("first", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 2.0))
	t2 := NewTask("second", Sig("Adder", "add"), NewContextFrom("arg/b", 10.0))
	job := NewJob("chain", Strategy{
		Flow:   Sequential,
		Access: Push,
		Pipes:  []Pipe{{FromIndex: 0, FromPath: "result/value", ToIndex: 1, ToPath: "arg/a"}},
	}, t1, t2)

	res, err := r.exerter.Exert(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status() != Done {
		t.Fatalf("status = %v", res.Status())
	}
	v, err := res.Context().Float("second/result/value")
	if err != nil || v != 13 {
		t.Fatalf("piped result = %v, %v (ctx: %s)", v, err, res.Context())
	}
}

func TestJobberParallel(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	var tasks []Exertion
	for i := 0; i < 8; i++ {
		tasks = append(tasks, NewTask(fmt.Sprintf("t%d", i),
			Sig("Adder", "add"), NewContextFrom("arg/a", float64(i), "arg/b", 1.0)))
	}
	job := NewJob("par", Strategy{Flow: Parallel, Access: Push}, tasks...)
	res, err := r.exerter.Exert(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v, err := res.Context().Float(fmt.Sprintf("t%d/result/value", i))
		if err != nil || v != float64(i+1) {
			t.Fatalf("t%d = %v, %v", i, v, err)
		}
	}
}

func TestJobFailsWhenComponentFails(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	good := NewTask("good", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 1.0))
	bad := NewTask("bad", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0)) // missing arg/b
	job := NewJob("j", Strategy{Flow: Sequential, Access: Push}, good, bad)
	_, err := r.exerter.Exert(job, nil)
	if err == nil || job.Status() != Failed {
		t.Fatalf("err = %v, status = %v", err, job.Status())
	}
}

func TestPipeValidation(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	t1 := NewTask("a", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 1.0))
	t2 := NewTask("b", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 1.0))
	// Forward pipe (from later to earlier) is invalid.
	job := NewJob("j", Strategy{
		Flow:  Sequential,
		Pipes: []Pipe{{FromIndex: 1, FromPath: "x", ToIndex: 0, ToPath: "y"}},
	}, t1, t2)
	if _, err := r.exerter.Exert(job, nil); err == nil {
		t.Fatal("forward pipe accepted")
	}
}

func TestRegisteredJobberUsedForPushJobs(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	jb := NewJobber("Jobber-1", r.exerter)
	join := PublishServicer(clockwork.Real(), r.mgr, jb, jb.ID(), jb.Name(), []string{JobberType}, nil)
	defer join.Terminate()

	task := NewTask("t", Sig("Adder", "add"), NewContextFrom("arg/a", 2.0, "arg/b", 3.0))
	job := NewJob("j", Strategy{Flow: Sequential, Access: Push}, task)
	res, err := r.exerter.Exert(job, nil)
	if err != nil || res.Status() != Done {
		t.Fatalf("err = %v, status = %v", err, res.Status())
	}
	if v, _ := res.Context().Float("t/result/value"); v != 5 {
		t.Fatalf("result = %v", v)
	}
}

func TestSpacerPullJob(t *testing.T) {
	r := newRig(t)
	sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer sp.Close()

	// Two adder providers work the space.
	p1, p2 := adderProvider("Adder-1"), adderProvider("Adder-2")
	w1 := NewSpaceWorker(sp, p1, "Adder")
	w2 := NewSpaceWorker(sp, p2, "Adder")
	defer w1.Stop()
	defer w2.Stop()

	spacer := NewSpacer("Spacer-1", sp, WithTaskTimeout(5*time.Second))
	join := PublishServicer(clockwork.Real(), r.mgr, spacer, spacer.ID(), spacer.Name(), []string{SpacerType}, nil)
	defer join.Terminate()

	var tasks []Exertion
	for i := 0; i < 6; i++ {
		tasks = append(tasks, NewTask(fmt.Sprintf("t%d", i),
			Sig("Adder", "add"), NewContextFrom("arg/a", float64(i), "arg/b", 100.0)))
	}
	job := NewJob("pull-job", Strategy{Flow: Parallel, Access: Pull}, tasks...)
	res, err := r.exerter.Exert(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		v, err := res.Context().Float(fmt.Sprintf("t%d/result/value", i))
		if err != nil || v != float64(i+100) {
			t.Fatalf("t%d = %v, %v", i, v, err)
		}
	}
}

func TestSpacerSequentialWithPipes(t *testing.T) {
	r := newRig(t)
	sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer sp.Close()
	w := NewSpaceWorker(sp, adderProvider("Adder-1"), "Adder")
	defer w.Stop()
	spacer := NewSpacer("Spacer-1", sp, WithTaskTimeout(5*time.Second))
	join := PublishServicer(clockwork.Real(), r.mgr, spacer, spacer.ID(), spacer.Name(), []string{SpacerType}, nil)
	defer join.Terminate()

	t1 := NewTask("first", Sig("Adder", "add"), NewContextFrom("arg/a", 5.0, "arg/b", 5.0))
	t2 := NewTask("second", Sig("Adder", "add"), NewContextFrom("arg/b", 1.0))
	job := NewJob("seq-pull", Strategy{
		Flow: Sequential, Access: Pull,
		Pipes: []Pipe{{FromIndex: 0, FromPath: "result/value", ToIndex: 1, ToPath: "arg/a"}},
	}, t1, t2)
	res, err := r.exerter.Exert(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Context().Float("second/result/value"); v != 11 {
		t.Fatalf("piped pull result = %v", v)
	}
}

func TestPullJobWithoutSpacerFails(t *testing.T) {
	r := newRig(t)
	job := NewJob("j", Strategy{Access: Pull}, NewTask("t", Sig("Adder", "add"), nil))
	if _, err := r.exerter.Exert(job, nil); !errors.Is(err, ErrNoProvider) {
		t.Fatalf("err = %v", err)
	}
}

func TestSpacerFailedTaskSurfacesError(t *testing.T) {
	r := newRig(t)
	sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer sp.Close()
	w := NewSpaceWorker(sp, adderProvider("Adder-1"), "Adder")
	defer w.Stop()
	spacer := NewSpacer("Spacer-1", sp, WithTaskTimeout(5*time.Second))
	join := PublishServicer(clockwork.Real(), r.mgr, spacer, spacer.ID(), spacer.Name(), []string{SpacerType}, nil)
	defer join.Terminate()

	bad := NewTask("bad", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0)) // missing b
	job := NewJob("j", Strategy{Flow: Parallel, Access: Pull}, bad)
	_, err := r.exerter.Exert(job, nil)
	if err == nil || !strings.Contains(err.Error(), "failed in space") {
		t.Fatalf("err = %v", err)
	}
}

func TestProviderServiceValidation(t *testing.T) {
	p := adderProvider("A")
	// Jobs are rejected by taskers.
	if _, err := p.Service(NewJob("j", Strategy{}), nil); !errors.Is(err, ErrNotTask) {
		t.Fatalf("err = %v", err)
	}
	// Wrong service type.
	task := NewTask("t", Sig("Other", "add"), nil)
	if _, err := p.Service(task, nil); !errors.Is(err, ErrWrongType) {
		t.Fatalf("err = %v", err)
	}
}

func TestProviderTypesIncludeServicer(t *testing.T) {
	p := NewProvider("x", "A", "B")
	types := p.Types()
	found := map[string]bool{}
	for _, tp := range types {
		found[tp] = true
	}
	if !found["A"] || !found["B"] || !found[ServicerType] {
		t.Fatalf("Types = %v", types)
	}
}

func TestAccessorFindAllDeduplicatesAcrossRegistrars(t *testing.T) {
	// Two LUSes; the provider joins both; FindAll must yield it once.
	bus := discovery.NewBus()
	lus1 := registry.New("one", clockwork.NewFake(epoch))
	lus2 := registry.New("two", clockwork.NewFake(epoch))
	defer lus1.Close()
	defer lus2.Close()
	defer bus.Announce(lus1)()
	defer bus.Announce(lus2)()
	mgr := discovery.NewManager(bus)
	defer mgr.Terminate()

	p := adderProvider("Adder-1")
	join := p.Publish(clockwork.Real(), mgr, nil)
	defer join.Terminate()

	acc := NewAccessor(mgr)
	all, err := acc.FindAll(Sig("Adder", "add"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("FindAll = %d providers, want 1 (dedup)", len(all))
	}
}

func TestExertUnknownExertionType(t *testing.T) {
	r := newRig(t)
	if _, err := r.exerter.Exert(nil, nil); err == nil {
		t.Fatal("nil exertion accepted")
	}
}

func TestProviderConcurrencyBound(t *testing.T) {
	p := NewProvider("bounded", "Work")
	var cur, max atomic.Int64
	p.RegisterOp("run", func(ctx *Context) error {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	p.SetConcurrency(2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := NewTask("t", Sig("Work", "run"), nil)
			if _, err := p.Service(task, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Fatalf("max concurrency = %d, want <= 2", got)
	}
	// Restore unbounded.
	p.SetConcurrency(0)
	task := NewTask("t", Sig("Work", "run"), nil)
	if _, err := p.Service(task, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExerterRoundRobinSpreadsLoad(t *testing.T) {
	r := newRig(t)
	var counts [3]atomic.Int64
	for i := 0; i < 3; i++ {
		i := i
		p := NewProvider(fmt.Sprintf("rr-%d", i), "RR")
		p.RegisterOp("hit", func(ctx *Context) error {
			counts[i].Add(1)
			return nil
		})
		r.publish(t, p)
	}
	for i := 0; i < 30; i++ {
		task := NewTask("t", Sig("RR", "hit"), nil)
		if _, err := r.exerter.Exert(task, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range counts {
		if got := counts[i].Load(); got != 10 {
			t.Fatalf("provider %d served %d tasks, want 10 (round robin)", i, got)
		}
	}
}

func TestJobOfJobs(t *testing.T) {
	// Hierarchical composition: a job containing jobs (the paper's §IV-D:
	// "an exertion job is defined hierarchically in terms of tasks and
	// other jobs").
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	inner1 := NewJob("inner1", Strategy{Flow: Parallel, Access: Push},
		NewTask("x", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 2.0)))
	inner2 := NewJob("inner2", Strategy{Flow: Sequential, Access: Push},
		NewTask("y", Sig("Adder", "add"), NewContextFrom("arg/a", 10.0, "arg/b", 20.0)))
	outer := NewJob("outer", Strategy{Flow: Sequential, Access: Push}, inner1, inner2)

	res, err := r.exerter.Exert(outer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status() != Done {
		t.Fatalf("status = %v", res.Status())
	}
	v1, err := res.Context().Float("inner1/x/result/value")
	if err != nil || v1 != 3 {
		t.Fatalf("inner1 = %v, %v (ctx %s)", v1, err, res.Context())
	}
	v2, err := res.Context().Float("inner2/y/result/value")
	if err != nil || v2 != 30 {
		t.Fatalf("inner2 = %v, %v", v2, err)
	}
}

func TestJobberRelaysBareTask(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	jb := NewJobber("Jobber-1", r.exerter)
	task := NewTask("t", Sig("Adder", "add"), NewContextFrom("arg/a", 2.0, "arg/b", 2.0))
	res, err := jb.Service(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Context().Float("result/value"); v != 4 {
		t.Fatalf("relayed task = %v", v)
	}
}

func TestJobUnderTransaction(t *testing.T) {
	// Exertions accept a transaction; providers that touch the space
	// stage under it. Here the op writes into the tuple space under the
	// job's transaction: aborting discards, committing publishes.
	r := newRig(t)
	fc := clockwork.NewFake(epoch)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	sp := space.New(fc, lease.Policy{Max: time.Hour})
	defer sp.Close()

	p := NewProvider("Writer", "Writer")
	p.RegisterOp("emit", func(ctx *Context) error {
		txv, _ := ctx.Get("txn")
		tx, _ := txv.(*txn.Transaction)
		_, err := sp.Write(space.NewEntry("Out", "v", 1), tx, time.Hour)
		return err
	})
	r.publish(t, p)

	tx, _ := tm.Create(time.Minute)
	task := NewTask("t", Sig("Writer", "emit"), NewContextFrom("txn", tx))
	if _, err := r.exerter.Exert(task, tx); err != nil {
		t.Fatal(err)
	}
	if sp.Count(space.NewEntry("Out")) != 0 {
		t.Fatal("staged write visible before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if sp.Count(space.NewEntry("Out")) != 1 {
		t.Fatal("committed write not visible")
	}
}

func TestFMIRebindsAcrossHeterogeneousSelectors(t *testing.T) {
	// Two providers of the same type with different operation sets: a
	// task whose selector only the second implements must still succeed,
	// whatever the round-robin starting point.
	r := newRig(t)
	squareOnly := NewProvider("SquareOnly", "Calc")
	squareOnly.RegisterOp("square", func(ctx *Context) error {
		x, _ := ctx.Float("x")
		ctx.Put("y", x*x)
		return nil
	})
	sqrtOnly := NewProvider("SqrtOnly", "Calc")
	sqrtOnly.RegisterOp("sqrt", func(ctx *Context) error {
		ctx.Put("y", 3.0)
		return nil
	})
	r.publish(t, squareOnly)
	r.publish(t, sqrtOnly)
	for i := 0; i < 4; i++ { // cover both rotation phases
		task := NewTask("t", Sig("Calc", "sqrt"), NewContextFrom("x", 9.0))
		res, err := r.exerter.Exert(task, nil)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if y, _ := res.Context().Float("y"); y != 3 {
			t.Fatalf("iteration %d: y = %v", i, y)
		}
	}
}

// Property: a sequential job chaining K adder tasks through context pipes
// computes the running sum, for arbitrary inputs — pipes compose
// associatively.
func TestPropertyPipedChainComputesFold(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	f := func(raw []int8) bool {
		vals := raw
		if len(vals) > 12 {
			vals = vals[:12]
		}
		if len(vals) < 2 {
			return true
		}
		var tasks []Exertion
		var pipes []Pipe
		for i, v := range vals {
			ctx := NewContextFrom("arg/b", float64(v))
			if i == 0 {
				ctx.Put("arg/a", 0.0)
			} else {
				pipes = append(pipes, Pipe{
					FromIndex: i - 1, FromPath: "result/value",
					ToIndex: i, ToPath: "arg/a",
				})
			}
			tasks = append(tasks, NewTask(fmt.Sprintf("t%d", i), Sig("Adder", "add"), ctx))
		}
		job := NewJob("fold", Strategy{Flow: Sequential, Access: Push, Pipes: pipes}, tasks...)
		res, err := r.exerter.Exert(job, nil)
		if err != nil {
			return false
		}
		got, err := res.Context().Float(fmt.Sprintf("t%d/result/value", len(vals)-1))
		if err != nil {
			return false
		}
		want := 0.0
		for _, v := range vals {
			want += float64(v)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
