package sorcer

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
)

// eagerView is the job context Spacer and Jobber used to build at the end
// of every run: each component's paths under "<component name>/", a
// component job flattened the same way, recursively.
func eagerView(ex Exertion) map[string]any {
	out := map[string]any{}
	j, ok := ex.(*Job)
	if !ok {
		sub := ex.Context()
		for _, p := range sub.Paths() {
			out[p], _ = sub.Get(p)
		}
		return out
	}
	for _, c := range j.Exertions() {
		for p, v := range eagerView(c) {
			out[c.Name()+"/"+p] = v
		}
	}
	return out
}

func contextData(c *Context) map[string]any {
	out := map[string]any{}
	for _, p := range c.Paths() {
		out[p], _ = c.Get(p)
	}
	return out
}

// checkJobContext compares the job's lazily built context with the eager
// view and requires at least want paths in it.
func checkJobContext(t *testing.T, job *Job, want int) {
	t.Helper()
	got, eager := contextData(job.Context()), eagerView(job)
	if !reflect.DeepEqual(got, eager) {
		t.Fatalf("lazy job context\n%v\nwant the eager view\n%v", got, eager)
	}
	if len(got) < want {
		t.Fatalf("job context has %d paths, want at least %d: %v", len(got), want, got)
	}
	if job.Context() != job.Context() {
		t.Fatal("job context rebuilt without a run in between")
	}
}

func pullSpace(t *testing.T, workers int) (*space.Space, *Spacer) {
	t.Helper()
	sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
	for i := 0; i < workers; i++ {
		w := NewSpaceWorker(sp, adderProvider(fmt.Sprintf("Adder-%d", i+1)), "Adder")
		t.Cleanup(w.Stop)
	}
	t.Cleanup(sp.Close)
	return sp, NewSpacer("Spacer-1", sp, WithTaskTimeout(5*time.Second))
}

func TestJobContextSpacerParallel(t *testing.T) {
	_, spacer := pullSpace(t, 2)
	job := pullAdderJob(8)
	if _, err := spacer.Service(job, nil); err != nil {
		t.Fatal(err)
	}
	checkJobContext(t, job, 8*3)
	checkAdderJob(t, job, 8)
}

func TestJobContextSpacerSequentialPipes(t *testing.T) {
	_, spacer := pullSpace(t, 1)
	t1 := NewTask("first", Sig("Adder", "add"), NewContextFrom("arg/a", 5.0, "arg/b", 5.0))
	t2 := NewTask("second", Sig("Adder", "add"), NewContextFrom("arg/b", 1.0))
	job := NewJob("seq-pull", Strategy{
		Flow: Sequential, Access: Pull,
		Pipes: []Pipe{{FromIndex: 0, FromPath: "result/value", ToIndex: 1, ToPath: "arg/a"}},
	}, t1, t2)
	if _, err := spacer.Service(job, nil); err != nil {
		t.Fatal(err)
	}
	checkJobContext(t, job, 6)
	if v, _ := job.Context().Float("second/result/value"); v != 11 {
		t.Fatalf("piped pull result = %v", v)
	}
}

func TestJobContextJobberPush(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	var tasks []Exertion
	for i := 0; i < 8; i++ {
		tasks = append(tasks, NewTask(fmt.Sprintf("t%d", i),
			Sig("Adder", "add"), NewContextFrom("arg/a", float64(i), "arg/b", 1.0)))
	}
	job := NewJob("par", Strategy{Flow: Parallel, Access: Push}, tasks...)
	if _, err := NewJobber("Jobber-1", r.exerter).Service(job, nil); err != nil {
		t.Fatal(err)
	}
	checkJobContext(t, job, 8*3)
}

// TestJobContextFailedJob: a failed run aggregates what its components
// left behind, the completed ones' outputs and the failed one's inputs.
func TestJobContextFailedJob(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	good := NewTask("good", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 1.0))
	bad := NewTask("bad", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0)) // missing arg/b
	job := NewJob("j", Strategy{Flow: Sequential, Access: Push}, good, bad)
	if _, err := NewJobber("Jobber-1", r.exerter).Service(job, nil); err == nil || job.Status() != Failed {
		t.Fatalf("err = %v, status = %v", err, job.Status())
	}
	checkJobContext(t, job, 4)
	if v, _ := job.Context().Float("good/result/value"); v != 2 {
		t.Fatalf("good/result/value = %v", v)
	}
}

func TestJobContextJobOfJobs(t *testing.T) {
	r := newRig(t)
	r.publish(t, adderProvider("Adder-1"))
	inner1 := NewJob("inner1", Strategy{Flow: Parallel, Access: Push},
		NewTask("x", Sig("Adder", "add"), NewContextFrom("arg/a", 1.0, "arg/b", 2.0)))
	inner2 := NewJob("inner2", Strategy{Flow: Sequential, Access: Push},
		NewTask("y", Sig("Adder", "add"), NewContextFrom("arg/a", 10.0, "arg/b", 20.0)))
	outer := NewJob("outer", Strategy{Flow: Sequential, Access: Push}, inner1, inner2)
	if _, err := NewJobber("Jobber-1", r.exerter).Service(outer, nil); err != nil {
		t.Fatal(err)
	}
	checkJobContext(t, outer, 6)
	if v, _ := outer.Context().Float("inner2/y/result/value"); v != 30 {
		t.Fatalf("inner2/y/result/value = %v", v)
	}
}

// TestJobContextRefreshedByRerun: a second Service on the same job makes
// the next Context call aggregate again; the view handed out before it
// stays as it was.
func TestJobContextRefreshedByRerun(t *testing.T) {
	_, spacer := pullSpace(t, 2)
	job := pullAdderJob(4)
	if _, err := spacer.Service(job, nil); err != nil {
		t.Fatal(err)
	}
	first := job.Context()
	if v, _ := first.Float("t3/result/value"); v != 103 {
		t.Fatalf("first run t3 = %v", v)
	}
	for _, c := range job.Exertions() {
		c.Context().Put("arg/b", 200.0)
	}
	if v, _ := job.Context().Float("t3/arg/b"); v != 100 {
		t.Fatalf("view changed without a run: t3/arg/b = %v", v)
	}
	if _, err := spacer.Service(job, nil); err != nil {
		t.Fatal(err)
	}
	checkJobContext(t, job, 4*3)
	if v, _ := job.Context().Float("t3/result/value"); v != 203 {
		t.Fatalf("second run t3 = %v", v)
	}
	if v, _ := first.Float("t3/result/value"); v != 103 {
		t.Fatalf("first view changed by the second run: t3 = %v", v)
	}
}

// TestSpacerJobAllocs pins what an 8-task parallel pull-mode job
// allocates over a volatile space with two workers: the Spacer's
// dispatch and collection, both workers' takes and result writes, and
// the space's hand-offs. The job context is not flattened (nothing reads
// it), the space keeps no copy of an envelope or result handed off in the
// commit that writes it and grants it no lease, and each task's ID is
// rendered and boxed once, when the task is made.
func TestSpacerJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, spacer := pullSpace(t, 2)
	const runs = 50
	jobs := make([]*Job, runs+2)
	for i := range jobs {
		jobs[i] = pullAdderJob(8)
	}
	next := 0
	serve := func() {
		if _, err := spacer.Service(jobs[next], nil); err != nil {
			t.Fatal(err)
		}
		next++
	}
	serve() // warm the workers and the space's index
	allocs := testing.AllocsPerRun(runs, serve)
	// 77 here against 258 when the job context was flattened on every
	// run, every envelope and result was copied into the space and leased,
	// and task IDs were rendered per use. A stray worker poll adds a few.
	const budget = 100
	if allocs > budget {
		t.Fatalf("8-task pull job: %.1f allocs, budget %d", allocs, budget)
	}
	for _, j := range jobs[:next] {
		checkAdderJob(t, j, 8)
	}
}
