package sensorcer

// One benchmark per reproduced figure/claim (see DESIGN.md §4 and
// EXPERIMENTS.md), plus ablation benches for the design choices DESIGN.md
// §5 calls out. Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/collect"
	"sensorcer/internal/discovery"
	"sensorcer/internal/expr"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/rio"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/spot"
	"sensorcer/internal/testbed"
	"sensorcer/internal/wal"
	"sensorcer/internal/wire"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

// --- Fig. 3: the paper's two-level composite read -----------------------

func BenchmarkFig3CompositeRead(b *testing.B) {
	d := testbed.New(testbed.Config{})
	defer d.Close()
	nm := d.Facade.Network()
	if _, err := nm.ComposeService("Composite-Service",
		[]string{"Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"}, "(a + b + c)/3"); err != nil {
		b.Fatal(err)
	}
	if _, err := nm.ComposeService("New-Composite",
		[]string{"Composite-Service", "Coral-Sensor"}, "(a + b)/2"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nm.GetValue("New-Composite"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C1: scalability sweeps ---------------------------------------------

func BenchmarkLookupScaling(b *testing.B) {
	for _, n := range []int{4, 64, 1024, 4096} {
		b.Run(fmt.Sprintf("services-%d", n), func(b *testing.B) {
			lus := registry.New("lus", clockwork.NewFake(epoch))
			defer lus.Close()
			for i := 0; i < n; i++ {
				esp := sensor.NewESP(fmt.Sprintf("s-%d", i),
					probe.NewReplayProbe("x", "t", "c", []float64{1}, true, nil))
				defer esp.Close()
				if _, err := lus.Register(registry.ServiceItem{
					Service: esp, Types: []string{sensor.AccessorType},
					Attributes: nameAttr(fmt.Sprintf("s-%d", i)),
				}, time.Hour); err != nil {
					b.Fatal(err)
				}
			}
			tmpl := registry.ByName(fmt.Sprintf("s-%d", n/2), sensor.AccessorType)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lus.LookupOne(tmpl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompositeFanout(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("children-%d", n), func(b *testing.B) {
			csp := sensor.NewCSP("bench")
			for i := 0; i < n; i++ {
				esp := sensor.NewESP(fmt.Sprintf("s-%d", i),
					probe.NewReplayProbe("x", "t", "c", []float64{float64(i)}, true, nil))
				defer esp.Close()
				if _, err := csp.AddChild(esp); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := csp.GetValue(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C2: plug-and-play cycle ---------------------------------------------

func BenchmarkPlugAndPlay(b *testing.B) {
	bus := discovery.NewBus()
	lus := registry.New("lus", clockwork.NewFake(epoch))
	defer lus.Close()
	defer bus.Announce(lus)()
	mgr := discovery.NewManager(bus)
	defer mgr.Terminate()
	esp := sensor.NewESP("popup", probe.NewReplayProbe("popup", "t", "c", []float64{1}, true, nil))
	defer esp.Close()
	tmpl := registry.ByName("popup")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join := esp.Publish(clockwork.Real(), mgr)
		if _, err := lus.LookupOne(tmpl); err != nil {
			b.Fatal("not visible after publish")
		}
		join.Terminate()
		if _, err := lus.LookupOne(tmpl); err == nil {
			b.Fatal("still visible after departure")
		}
	}
}

// --- C3: provisioning failover -------------------------------------------

func BenchmarkProvisionFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := testbed.New(testbed.Config{Sensors: 2, Cybernodes: 2})
		nm := d.Facade.Network()
		if err := nm.ProvisionComposite("ha", d.SensorNames(), "", sensor.QoSSpec{}); err != nil {
			b.Fatal(err)
		}
		victim := d.Nodes[0]
		if len(victim.Services()) == 0 {
			victim = d.Nodes[1]
		}
		b.StartTimer()
		victim.Kill() // synchronous re-provision via OnDeath
		if _, err := nm.GetValue("ha"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		d.Close()
	}
}

// --- C4: wire overhead ----------------------------------------------------

func wireBatch(n int) []wire.Reading {
	out := make([]wire.Reading, n)
	for i := range out {
		out[i] = wire.Reading{
			SensorID:  uint16(0x1000 + i%4),
			Timestamp: epoch.Add(time.Duration(i) * 250 * time.Millisecond),
			Value:     20 + float64(i%10)*0.37,
		}
	}
	return out
}

func BenchmarkWireCompactEncode(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
			batch := wireBatch(n)
			b.ResetTimer()
			var bytes int
			for i := 0; i < b.N; i++ {
				buf, err := wire.EncodeCompact(batch)
				if err != nil {
					b.Fatal(err)
				}
				bytes = len(buf)
			}
			b.ReportMetric(float64(bytes)/float64(n), "B/reading")
		})
	}
}

func BenchmarkWireIPStyleEncode(b *testing.B) {
	r := wireBatch(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wire.EncodeIPStyle(r)
	}
	b.ReportMetric(float64(wire.IPStyleBytesPerReading), "B/reading")
}

// --- C5: aggregation tree vs direct polling -------------------------------

func BenchmarkAggregation(b *testing.B) {
	const n = 64
	d := testbed.New(testbed.Config{Sensors: n})
	defer d.Close()
	nm := d.Facade.Network()
	names := d.SensorNames()
	var groups []string
	for i := 0; i < n; i += 8 {
		g := fmt.Sprintf("g%d", i/8)
		if _, err := nm.ComposeService(g, names[i:i+8], ""); err != nil {
			b.Fatal(err)
		}
		groups = append(groups, g)
	}
	if _, err := nm.ComposeService("root", groups, ""); err != nil {
		b.Fatal(err)
	}

	b.Run("direct-poll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum := 0.0
			for _, name := range names {
				r, err := nm.GetValue(name)
				if err != nil {
					b.Fatal(err)
				}
				sum += r.Value
			}
		}
	})
	b.Run("composite-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nm.GetValue("root"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- C6: expression evaluation cost ---------------------------------------

func BenchmarkExprEval(b *testing.B) {
	env := expr.Env{"a": 20.0, "b": 22.0, "c": 24.0}
	b.Run("hardcoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = (env["a"].(float64) + env["b"].(float64) + env["c"].(float64)) / 3
		}
	})
	for name, src := range map[string]string{
		"paper-avg": "(a + b + c)/3",
		"builtins":  "max(a, b, c) - min(a, b, c) + avg(a, b, c)",
		"ternary":   "a > 30 ? a : (b > 30 ? b : (a + b + c)/3)",
	} {
		p := expr.MustCompile(src)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.EvalNumber(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			expr.MustCompile("(a + b + c)/3")
		}
	})
}

// --- C7: push vs pull federation ------------------------------------------

func benchFederationRig() (*discovery.Manager, *sorcer.Exerter, func()) {
	bus := discovery.NewBus()
	lus := registry.New("lus", clockwork.NewFake(epoch))
	cancel := bus.Announce(lus)
	mgr := discovery.NewManager(bus)
	exerter := sorcer.NewExerter(sorcer.NewAccessor(mgr))
	return mgr, exerter, func() { mgr.Terminate(); cancel(); lus.Close() }
}

func benchTasks(n int) []sorcer.Exertion {
	out := make([]sorcer.Exertion, n)
	for i := range out {
		out[i] = sorcer.NewTask(fmt.Sprintf("t%d", i),
			sorcer.Sig("Adder", "add"),
			sorcer.NewContextFrom("arg/a", float64(i), "arg/b", 1.0))
	}
	return out
}

func adder(name string) *sorcer.Provider {
	p := sorcer.NewProvider(name, "Adder")
	p.RegisterOp("add", func(ctx *sorcer.Context) error {
		a, err := ctx.Float("arg/a")
		if err != nil {
			return err
		}
		bv, err := ctx.Float("arg/b")
		if err != nil {
			return err
		}
		ctx.Put("result/value", a+bv)
		return nil
	})
	return p
}

func BenchmarkPushVsPull(b *testing.B) {
	const tasks = 16
	b.Run("push-jobber", func(b *testing.B) {
		mgr, exerter, cleanup := benchFederationRig()
		defer cleanup()
		join := adder("Adder-1").Publish(clockwork.Real(), mgr, nil)
		defer join.Terminate()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job := sorcer.NewJob("j", sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Push}, benchTasks(tasks)...)
			if _, err := exerter.Exert(job, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pull-spacer", func(b *testing.B) {
		mgr, exerter, cleanup := benchFederationRig()
		defer cleanup()
		sp := space.New(clockwork.Real(), lease.Policy{Max: time.Hour})
		defer sp.Close()
		var workers []*sorcer.SpaceWorker
		for i := 0; i < 4; i++ {
			workers = append(workers, sorcer.NewSpaceWorker(sp, adder(fmt.Sprintf("A%d", i)), "Adder"))
		}
		defer func() {
			for _, w := range workers {
				w.Stop()
			}
		}()
		spacer := sorcer.NewSpacer("Spacer-1", sp, sorcer.WithTaskTimeout(30*time.Second))
		join := sorcer.PublishServicer(clockwork.Real(), mgr, spacer, spacer.ID(), spacer.Name(),
			[]string{sorcer.SpacerType}, nil)
		defer join.Terminate()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job := sorcer.NewJob("j", sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, benchTasks(tasks)...)
			if _, err := exerter.Exert(job, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

func BenchmarkProvisionPolicy(b *testing.B) {
	policies := map[string]rio.SelectionPolicy{
		"least-loaded": rio.LeastLoaded{},
		"round-robin":  &rio.RoundRobin{},
		"best-fit":     rio.BestFit{},
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				factories := rio.NewFactoryRegistry()
				factories.Register("noop", func(rio.ServiceElement) (rio.Bean, error) {
					return noopBean{}, nil
				})
				m := rio.NewMonitor(clockwork.NewFake(epoch), policy)
				for j := 0; j < 8; j++ {
					node := rio.NewCybernode(fmt.Sprintf("n%d", j),
						rio.Capability{CPUs: 4 + j, MemoryMB: 1024 << (j % 4)}, factories)
					if _, err := m.RegisterCybernode(node, time.Hour); err != nil {
						b.Fatal(err)
					}
				}
				elem := rio.ServiceElement{Name: "e", Type: "noop", Planned: 16}
				b.StartTimer()
				if err := m.Deploy(rio.OpString{Name: "s", Elements: []rio.ServiceElement{elem}}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				m.Close()
			}
		})
	}
}

type noopBean struct{}

func (noopBean) Start(*rio.Cybernode) error { return nil }
func (noopBean) Stop() error                { return nil }

func BenchmarkCSPReadStrategy(b *testing.B) {
	build := func(opts ...sensor.CSPOption) *sensor.CSP {
		csp := sensor.NewCSP("bench", opts...)
		for i := 0; i < 16; i++ {
			esp := sensor.NewESP(fmt.Sprintf("s-%d", i),
				probe.NewReplayProbe("x", "t", "c", []float64{float64(i)}, true, nil))
			b.Cleanup(func() { esp.Close() })
			csp.AddChild(esp)
		}
		return csp
	}
	b.Run("parallel", func(b *testing.B) {
		csp := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := csp.GetValue(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		csp := build(sensor.WithSequentialReads())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := csp.GetValue(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRegistryRegister(b *testing.B) {
	lus := registry.New("lus", clockwork.NewFake(epoch))
	defer lus.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lus.Register(registry.ServiceItem{
			Service: i, Types: []string{"X"}, Attributes: nameAttr(fmt.Sprint(i)),
		}, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpaceWriteTake(b *testing.B) {
	sp := space.New(clockwork.NewFake(epoch), lease.Policy{Max: time.Hour})
	defer sp.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Write(space.NewEntry("E", "k", i), nil, time.Hour); err != nil {
			b.Fatal(err)
		}
		if _, err := sp.Take(space.NewEntry("E"), nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceParallelMixedKinds drives concurrent write/take pairs on
// per-goroutine hot kinds while the space holds a large resident population
// of unrelated kinds. With the kind-keyed index, cost stays flat as the
// unrelated population grows; under the old linear scan it grew with it.
func BenchmarkSpaceParallelMixedKinds(b *testing.B) {
	for _, resident := range []int{0, 1024, 8192} {
		b.Run(fmt.Sprintf("resident-%d", resident), func(b *testing.B) {
			sp := space.New(clockwork.NewFake(epoch), lease.Policy{Max: time.Hour})
			defer sp.Close()
			for i := 0; i < resident; i++ {
				kind := fmt.Sprintf("COLD-%d", i%8)
				if _, err := sp.Write(space.NewEntry(kind, "k", i), nil, time.Hour); err != nil {
					b.Fatal(err)
				}
			}
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				kind := fmt.Sprintf("HOT-%d", worker.Add(1))
				i := 0
				for pb.Next() {
					if _, err := sp.Write(space.NewEntry(kind, "k", i), nil, time.Hour); err != nil {
						b.Error(err)
						return
					}
					if _, err := sp.Take(space.NewEntry(kind), nil, 0); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

func BenchmarkESPGetValue(b *testing.B) {
	esp := sensor.NewESP("s", probe.NewReplayProbe("s", "t", "c", []float64{21.5}, true, nil))
	defer esp.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := esp.GetValue(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExertTask(b *testing.B) {
	mgr, exerter, cleanup := benchFederationRig()
	defer cleanup()
	join := adder("Adder-1").Publish(clockwork.Real(), mgr, nil)
	defer join.Terminate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := sorcer.NewTask("t", sorcer.Sig("Adder", "add"),
			sorcer.NewContextFrom("arg/a", 1.0, "arg/b", 2.0))
		if _, err := exerter.Exert(task, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// nameAttr builds a single-Name attribute set.
func nameAttr(name string) attr.Set { return attr.Set{attr.Name(name)} }

// --- Radio collection pipeline (collect + spot + wire) ---------------------

func BenchmarkRadioCollection(b *testing.B) {
	fc := clockwork.NewFake(epoch)
	link := spot.NewLink(0, 0, 1)
	dev := spot.NewDevice(spot.Config{Name: "field", Addr: 0x2001, Clock: fc, Link: link})
	dev.Attach(spot.ConstantModel{Value: 21.5, UnitName: "celsius", KindName: "temperature"})
	collector := collect.NewCollector(fc)
	collector.Track(0x2001, "field", "temperature", "celsius")
	link.SetReceiver(collector.Receive)
	node := collect.NewFieldNode(dev, "temperature", 0x1, collect.MaxBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.Sample(); err != nil {
			b.Fatal(err)
		}
		fc.Advance(time.Second)
	}
	b.StopTimer()
	node.Flush()
	_, _, _, bytes := link.Stats()
	b.ReportMetric(float64(bytes)/float64(b.N), "radioB/reading")
}

// --- Data-plane batching: bound-expression reads and batched dispatch ----

// BenchmarkCSPReadExpression measures a sequential composite read through
// a slot-bound compute-expression — the paper's §V-B shapes. With the
// bound fast path the steady state is allocation-free.
func BenchmarkCSPReadExpression(b *testing.B) {
	for _, tc := range []struct {
		name, src string
	}{
		{"default-average", ""},
		{"paper-avg", "(a + b + c) / 3"},
		{"hist-baseline", "a - avg(a_hist)"},
		{"quorum", "max(values) - min(values) < 5 ? avg(values) : a"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			csp := sensor.NewCSP("bench", sensor.WithSequentialReads())
			for i := 0; i < 3; i++ {
				esp := sensor.NewESP(fmt.Sprintf("s-%d", i),
					probe.NewReplayProbe("x", "t", "c", []float64{float64(i) + 20}, true, nil))
				b.Cleanup(func() { esp.Close() })
				if _, err := csp.AddChild(esp); err != nil {
					b.Fatal(err)
				}
			}
			if tc.src != "" {
				if err := csp.SetExpression(tc.src); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := csp.GetValue(); err != nil { // warm pools and stores
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := csp.GetValue(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpacerBatch runs an 8-task pull-mode job over a durable
// (journaled, fsync-per-ack) exertion space: dispatch pays one group
// commit for the envelope flood and the worker drains with TakeAny. (The
// one-Write/Take/fsync-per-envelope baseline it replaced is recorded as
// per-envelope-8 in BENCH_PR5–PR9.json.)
func BenchmarkSpacerBatch(b *testing.B) {
	const tasks = 8
	b.Run(fmt.Sprintf("batched-%d", tasks), func(b *testing.B) {
		l, err := wal.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sp, err := space.Recover(clockwork.Real(), lease.Policy{Max: time.Hour}, l)
		if err != nil {
			b.Fatal(err)
		}
		w := sorcer.NewSpaceWorker(sp, adder("Adder-1"), "Adder")
		spacer := sorcer.NewSpacer("Spacer-1", sp, sorcer.WithTaskTimeout(30*time.Second))
		b.Cleanup(func() {
			w.Stop()
			sp.Close()
			_ = l.Close()
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var comps []sorcer.Exertion
			for j := 0; j < tasks; j++ {
				comps = append(comps, sorcer.NewTask(fmt.Sprintf("t%d", j),
					sorcer.Sig("Adder", "add"),
					sorcer.NewContextFrom("arg/a", float64(j), "arg/b", 100.0)))
			}
			job := sorcer.NewJob("bench-job", sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, comps...)
			if _, err := spacer.Service(job, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
