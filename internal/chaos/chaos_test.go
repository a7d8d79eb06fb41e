//go:build chaos

package chaos

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/srpc"
	"sensorcer/internal/txn"
)

// seed returns the chaos seed: CHAOS_SEED when set, else 1, so runs are
// reproducible and CI pins a fixed sequence.
func seed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

// faultRates is the sweep every federation scenario runs under.
var faultRates = []float64{0.05, 0.10, 0.20}

// checkGoroutines fails the test if goroutines leaked past the baseline
// once the federation has been torn down (with slack for runtime helpers).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
}

// rig is a single-LUS in-process federation.
type rig struct {
	bus      *discovery.Bus
	lus      *registry.LookupService
	mgr      *discovery.Manager
	accessor *sorcer.Accessor
	cancel   func()
	joins    []*discovery.Join
}

func newRig() *rig {
	r := &rig{bus: discovery.NewBus()}
	r.lus = registry.New("chaos-lus", clockwork.Real())
	r.cancel = r.bus.Announce(r.lus)
	r.mgr = discovery.NewManager(r.bus)
	r.accessor = sorcer.NewAccessor(r.mgr)
	return r
}

func (r *rig) publish(p *sorcer.Provider) {
	r.joins = append(r.joins, p.Publish(clockwork.Real(), r.mgr, nil))
}

func (r *rig) close() {
	for _, j := range r.joins {
		j.Terminate()
	}
	r.mgr.Terminate()
	r.cancel()
	r.lus.Close()
}

// faultyAdder is an Adder provider whose op consults the injector at site
// "provider/<name>".
func faultyAdder(name string, inj *faults.Injector) *sorcer.Provider {
	p := sorcer.NewProvider(name, "Adder")
	site := "provider/" + name
	p.RegisterOp("add", func(ctx *sorcer.Context) error {
		if err := inj.Inject(site); err != nil {
			return err
		}
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

// TestPushFederationUnderFaults drives push-mode FMI through providers
// failing at 5–20% rates: with rebinding to equivalent providers, every
// exertion either completes with the right value or fails cleanly, and
// nothing leaks.
func TestPushFederationUnderFaults(t *testing.T) {
	for _, rate := range faultRates {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.0f%%", rate*100), func(t *testing.T) {
			before := runtime.NumGoroutine()
			inj := faults.New(seed(t), clockwork.Real())
			inj.SetDefault(faults.Rule{ErrorRate: rate})
			r := newRig()
			for i := 0; i < 4; i++ {
				r.publish(faultyAdder(fmt.Sprintf("Adder-%d", i), inj))
			}
			ex := sorcer.NewExerter(r.accessor)

			const exertions = 200
			succeeded := 0
			for i := 0; i < exertions; i++ {
				task := sorcer.NewTask("add", sorcer.Sig("Adder", "add"),
					sorcer.NewContextFrom("arg/a", float64(i), "arg/b", 1.0))
				res, err := ex.Exert(task, nil)
				if err != nil {
					// Clean failure: the error must say every binding was
					// tried, not be a hang or a panic.
					continue
				}
				v, err := res.Context().Float("result/value")
				if err != nil || v != float64(i+1) {
					t.Fatalf("exertion %d returned corrupt result: %v %v", i, v, err)
				}
				succeeded++
			}
			// With 4 equivalent providers and rebinding, the federation
			// absorbs these fault rates almost entirely.
			if succeeded < exertions*9/10 {
				t.Fatalf("only %d/%d exertions completed at rate %.0f%%", succeeded, exertions, rate*100)
			}
			t.Logf("rate %.0f%%: %d/%d exertions completed", rate*100, succeeded, exertions)
			r.close()
			checkGoroutines(t, before)
		})
	}
}

// TestPullFederationUnderFaults drives pull-mode federation through a
// tuple space losing writes and failing takes: the spacer redispatches
// lost envelopes and jobs complete.
func TestPullFederationUnderFaults(t *testing.T) {
	for _, rate := range faultRates {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.0f%%", rate*100), func(t *testing.T) {
			before := runtime.NumGoroutine()
			inj := faults.New(seed(t), clockwork.Real())
			// Workers and the spacer share the space; losing writes
			// loses both envelopes and results.
			inj.Set("space"+space.FaultSiteWrite, faults.Rule{DropRate: rate})
			r := newRig()
			sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
			sp.SetFaultInjector(inj, "space")

			var workers []*sorcer.SpaceWorker
			for i := 0; i < 3; i++ {
				workers = append(workers, sorcer.NewSpaceWorker(sp, faultyAdder(fmt.Sprintf("W-%d", i), inj), "Adder"))
			}
			spacer := sorcer.NewSpacer("chaos-spacer", sp, sorcer.WithTaskTimeout(100*time.Millisecond))
			join := sorcer.PublishServicer(clockwork.Real(), r.mgr, spacer, spacer.ID(), spacer.Name(),
				[]string{sorcer.SpacerType}, nil)
			exerter := sorcer.NewExerter(r.accessor)

			const jobs = 10
			completed := 0
			for j := 0; j < jobs; j++ {
				var tasks []sorcer.Exertion
				for i := 0; i < 4; i++ {
					tasks = append(tasks, sorcer.NewTask(fmt.Sprintf("t%d", i),
						sorcer.Sig("Adder", "add"),
						sorcer.NewContextFrom("arg/a", float64(i), "arg/b", 10.0)))
				}
				job := sorcer.NewJob(fmt.Sprintf("job-%d", j),
					sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, tasks...)
				res, err := exerter.Exert(job, nil)
				if err != nil {
					continue // clean failure (a task kept failing in space)
				}
				for i := 0; i < 4; i++ {
					v, err := res.Context().Float(fmt.Sprintf("t%d/result/value", i))
					if err != nil || v != float64(i+10) {
						t.Fatalf("job %d task %d corrupt: %v %v", j, i, v, err)
					}
				}
				completed++
			}
			if completed < jobs/2 {
				t.Fatalf("only %d/%d pull jobs completed at rate %.0f%%", completed, jobs, rate*100)
			}
			t.Logf("rate %.0f%%: %d/%d pull jobs completed", rate*100, completed, jobs)

			join.Terminate()
			for _, w := range workers {
				w.Stop()
			}
			sp.Close()
			r.close()
			checkGoroutines(t, before)
		})
	}
}

// TestSrpcUnderFaults hammers the transport with injected send errors and
// dropped requests: retried a bounded number of times under per-attempt
// deadlines, every call either succeeds or fails with a classified error —
// never hangs.
func TestSrpcUnderFaults(t *testing.T) {
	for _, rate := range faultRates {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.0f%%", rate*100), func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := srpc.NewServer()
			srpc.HandleFunc(s, "add", func(p struct {
				A float64 `json:"a"`
				B float64 `json:"b"`
			}) (any, error) {
				return p.A + p.B, nil
			})
			if err := s.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			c, err := srpc.Dial(s.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			inj := faults.New(seed(t), clockwork.Real())
			inj.Set("client"+srpc.FaultSiteSend, faults.Rule{ErrorRate: rate / 2, DropRate: rate / 2})
			c.SetFaultInjector(inj, "client")

			const calls, attempts = 150, 4
			succeeded := 0
			for i := 0; i < calls; i++ {
				var out float64
				var err error
				for a := 0; a < attempts; a++ {
					err = c.CallWithTimeout("add", map[string]float64{"a": float64(i), "b": 1}, &out, 150*time.Millisecond)
					if err == nil {
						break
					}
				}
				if err != nil {
					if !errors.Is(err, faults.ErrInjected) && !errors.Is(err, srpc.ErrTimeout) {
						t.Fatalf("call %d failed with unclassified error: %v", i, err)
					}
					continue
				}
				if out != float64(i+1) {
					t.Fatalf("call %d corrupt result %v", i, out)
				}
				succeeded++
			}
			if succeeded < calls*3/4 {
				t.Fatalf("only %d/%d calls survived rate %.0f%%", succeeded, calls, rate*100)
			}
			t.Logf("rate %.0f%%: %d/%d calls completed", rate*100, succeeded, calls)
			c.Close()
			s.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestLeaseExpiryEvictsCrashedProvider registers a provider whose renewal
// stops when it crashes: after its lease term passes (fake clock), the
// lookup service no longer lists it — the paper's self-healing semantics.
func TestLeaseExpiryEvictsCrashedProvider(t *testing.T) {
	fc := clockwork.NewFake(time.Unix(0, 0))
	lus := registry.New("lus", fc, registry.WithLeasePolicy(lease.Policy{Max: time.Minute}))
	defer lus.Close()

	crash := &faults.Crash{}
	p := sorcer.NewProvider("Crashy", "Adder")
	reg, err := lus.Register(registry.ServiceItem{ID: p.ID(), Service: p, Types: p.Types()}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(lus.Lookup(registry.Template{Types: []string{"Adder"}}, 10)) != 1 {
		t.Fatal("provider not registered")
	}

	// Renew while alive: the crashed switch models the provider's renewal
	// loop dying with the process.
	renew := func() error {
		if err := crash.Check(); err != nil {
			return err
		}
		return reg.Lease.Renew(time.Minute)
	}
	fc.Advance(30 * time.Second)
	if err := renew(); err != nil {
		t.Fatalf("healthy renewal failed: %v", err)
	}

	crash.Crash()
	fc.Advance(30 * time.Second)
	if err := renew(); !errors.Is(err, faults.ErrCrashed) {
		t.Fatalf("crashed renewal = %v", err)
	}
	// Past the lease term without renewal: sweep evicts the registration.
	fc.Advance(45 * time.Second)
	lus.SweepNow()
	if n := len(lus.Lookup(registry.Template{Types: []string{"Adder"}}, 10)); n != 0 {
		t.Fatalf("crashed provider still listed (%d)", n)
	}
}

// TestExertionsFailCleanlyWhenAllProvidersDead: a federation whose every
// provider is crashed must fail each exertion with a bounded, classified
// error after one pass over its equivalent providers — it never hangs and
// never leaks.
func TestExertionsFailCleanlyWhenAllProvidersDead(t *testing.T) {
	before := runtime.NumGoroutine()
	crash := &faults.Crash{}
	r := newRig()
	for i := 0; i < 3; i++ {
		p := sorcer.NewProvider(fmt.Sprintf("Dead-%d", i), "Adder")
		p.RegisterOp("add", func(*sorcer.Context) error { return crash.Check() })
		r.publish(p)
	}
	crash.Crash()
	ex := sorcer.NewExerter(r.accessor)
	for i := 0; i < 20; i++ {
		task := sorcer.NewTask("add", sorcer.Sig("Adder", "add"), nil)
		start := time.Now()
		_, err := ex.Exert(task, nil)
		if err == nil {
			t.Fatal("dead federation completed an exertion")
		}
		if !errors.Is(err, faults.ErrCrashed) {
			t.Fatalf("unclassified failure: %v", err)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("failure took %v — not bounded", time.Since(start))
		}
	}
	r.close()
	checkGoroutines(t, before)
}

// TestTransactionalTakeSurvivesFaultyCohort: a space take under a
// transaction whose cohort aborts must restore the entry, also while the
// space is injecting take faults around it.
func TestTransactionalTakeSurvivesFaultyCohort(t *testing.T) {
	inj := faults.New(seed(t), clockwork.Real())
	inj.Set("space"+space.FaultSiteTake, faults.Rule{ErrorRate: 0.2})
	fc := clockwork.Real()
	sp := space.New(fc, lease.Policy{Max: time.Hour})
	defer sp.Close()
	sp.SetFaultInjector(inj, "space")
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})

	if _, err := sp.Write(space.NewEntry("Tok"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	const attempts = 20
	for round := 0; round < 25; round++ {
		tx, _ := tm.Create(time.Hour)
		var err error
		for a := 0; a < attempts; a++ {
			if _, err = sp.Take(space.NewEntry("Tok"), tx, 50*time.Millisecond); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("round %d: take never succeeded: %v", round, err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("round %d: abort: %v", round, err)
		}
		// The abort restored the token for the next round.
	}
	if n := sp.Count(space.NewEntry("Tok")); n != 1 {
		t.Fatalf("token count = %d after aborted rounds", n)
	}
}
