package main

import (
	"fmt"
	"runtime"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/expr"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/remote"
	"sensorcer/internal/repl"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/space"
	"sensorcer/internal/srpc"
	"sensorcer/internal/subscribe"
	"sensorcer/internal/wal"
)

// Layer probes call one public function of one layer in a loop, inside
// the driver, on the inputs the workloads use. They put a floor under
// each layer's share of an operation: what the layer costs with nothing
// around it. Every probe reports the median of probeRounds rounds.
const probeRounds = 5

// probeScale divides every probe's iteration count; the smoke test
// raises it to stay quick.
var probeScale = 1

// timeLoop returns the median per-iteration time of fn over probeRounds
// rounds of n iterations, in the given unit (time.Nanosecond or
// time.Microsecond).
func timeLoop(n int, unit time.Duration, fn func() error) (float64, error) {
	n = max(n/probeScale, 1)
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		rounds = append(rounds, float64(time.Since(start))/float64(unit)/float64(n))
	}
	return median(rounds), nil
}

// allocsPerOp returns the heap allocations per call of fn, both halves
// of the loopback exchange included (the driver hosts client and server).
func allocsPerOp(n int, fn func() error) (float64, error) {
	n = max(n/probeScale, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// nullSink accepts every update and discards it.
type nullSink struct{ never chan struct{} }

func (nullSink) TrySend(*subscribe.Update) error { return nil }
func (k nullSink) Ready() <-chan struct{}        { return k.never }
func (k nullSink) Done() <-chan struct{}         { return k.never }
func (nullSink) Close(error)                     {}

// runProbes runs every layer probe and returns the per-layer metrics
// they define.
func runProbes(sb *sandbox) (metrics, error) {
	m := metrics{}
	steps := []func(*sandbox, metrics) error{probeSRPC, probeRemote, probeSensorExpr, probeSubscribe, probeRegistry, probeSpaceWAL}
	for _, step := range steps {
		if err := step(sb, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loopback starts an srpc server in the driver and dials it.
func loopback(register func(*srpc.Server)) (*srpc.Server, *srpc.Client, error) {
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	register(server)
	client, err := srpc.Dial(server.Addr(), 5*time.Second)
	if err != nil {
		server.Close()
		return nil, nil, err
	}
	return server, client, nil
}

func probeSRPC(_ *sandbox, m metrics) error {
	server, client, err := loopback(func(s *srpc.Server) {
		srpc.HandleFunc(s, "bench.echo", func(struct{}) (any, error) { return struct{}{}, nil })
		srpc.HandleStreamFunc(s, "bench.nullstream", func(struct{}, *srpc.ServerStream) error { return nil })
	})
	if err != nil {
		return err
	}
	defer server.Close()
	defer client.Close()
	call := func() error { return client.Call("bench.echo", struct{}{}, nil) }
	if err := call(); err != nil {
		return err
	}
	v, err := timeLoop(2000, time.Microsecond, call)
	if err != nil {
		return err
	}
	m.set("srpc.echo_rtt_us", "us", v, 2000*probeRounds)

	// Connection set-up: dial, first call (which waits out the binary
	// preamble exchange), close.
	v, err = timeLoop(100, time.Microsecond, func() error {
		c, err := srpc.Dial(server.Addr(), 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		return c.Call("bench.echo", struct{}{}, nil)
	})
	if err != nil {
		return err
	}
	m.set("srpc.conn_setup_us", "us", v, 100*probeRounds)

	// Opening a stream is one frame written; the echo behind it makes
	// the loop wait until the server has processed the open.
	v, err = timeLoop(500, time.Microsecond, func() error {
		st, err := client.OpenStream("bench.nullstream", struct{}{}, 0)
		if err != nil {
			return err
		}
		err = call()
		st.Close()
		return err
	})
	if err != nil {
		return err
	}
	m.set("srpc.stream_open_us", "us", v-m["srpc.echo_rtt_us"].Value, 500*probeRounds)
	return nil
}

func probeRemote(sb *sandbox, m metrics) error {
	// Read: the read workload's ESP behind ServeAccessor.
	esp := constESP(svcESP, 21.5)
	defer esp.Close()
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer server.Close()
	acc, err := remote.NewAccessorClient(remote.ServeAccessor(server, svcESP, esp), 5*time.Second)
	if err != nil {
		return err
	}
	defer acc.Close()
	read := func() error { _, err := acc.GetValue(); return err }
	if err := read(); err != nil {
		return err
	}
	v, err := allocsPerOp(2000, read)
	if err != nil {
		return err
	}
	m.set("remote.read_allocs_per_op", "count", v, 2000)

	// Lookup: a browse of the registry workload's population, stubs
	// dialled and closed as the workload does.
	lus := registry.New("probe-lus", clockwork.Real())
	defer lus.Close()
	remote.ServeRegistrar(server, lus)
	desc := remote.ProxyDesc{Kind: remote.AccessorKind, Locator: server.Addr(), Service: svcESP}
	rc, err := remote.NewRegistrarClient(server.Addr(), 5*time.Second)
	if err != nil {
		return err
	}
	defer rc.Close()
	// Registered over the wire, as the workload does: only then does the
	// registrar hold descriptors it can hand back to remote lookups.
	for i := 0; i < registryItems; i++ {
		if _, err := rc.Register(staticItem(i, desc), registryLease); err != nil {
			return err
		}
	}
	w := &registryChurn{}
	loc := 0
	browse := func() error { loc++; return w.browse(rc, loc%registryLocations) }
	if err := browse(); err != nil {
		return err
	}
	v, err = allocsPerOp(200, browse)
	if err != nil {
		return err
	}
	m.set("remote.lookup_allocs_per_op", "count", v, 200)

	// Stub dial: what RegistrarClient.Lookup pays per returned item.
	v, err = timeLoop(200, time.Microsecond, func() error {
		stub, err := remote.NewAccessorClient(desc, 5*time.Second)
		if err != nil {
			return err
		}
		stub.Close()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("remote.lookup_stub_dial_us", "us", v, 200*probeRounds)

	// Ship: one journal record to a backup node over ReplicationClient.
	// The allocation count does not depend on fsync, so the backup's log
	// runs without it.
	dir, err := sb.subdir("probe-ship-")
	if err != nil {
		return err
	}
	backup, err := repl.NewNode("probe-backup", clockwork.Real(), lease.Policy{}, dir,
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		return err
	}
	defer backup.Close()
	follower, err := remote.NewReplicationClient(remote.ServeReplication(server, "probe", backup), 5*time.Second)
	if err != nil {
		return err
	}
	defer follower.Close()
	payload := [][]byte{make([]byte, 256)}
	seq := uint64(1)
	ship := func() error {
		next, err := follower.ShipBatch(1, seq, payload)
		seq = next
		return err
	}
	if err := ship(); err != nil {
		return err
	}
	v, err = allocsPerOp(1000, ship)
	if err != nil {
		return err
	}
	m.set("remote.ship_allocs_per_op", "count", v, 1000)
	return nil
}

func probeSensorExpr(_ *sandbox, m metrics) error {
	esp := constESP(svcESP, 21.5)
	defer esp.Close()
	v, err := timeLoop(200000, time.Nanosecond, func() error { _, err := esp.GetValue(); return err })
	if err != nil {
		return err
	}
	m.set("sensor.esp_get_value_ns", "ns", v, 200000*probeRounds)

	// The composite's expression, through the slot-bound float path the
	// CSP takes and through the general Env evaluator.
	prog, err := expr.Compile("(a+b+c+d)/4")
	if err != nil {
		return err
	}
	bound, err := prog.Bind([]string{"a", "b", "c", "d"})
	if err != nil {
		return err
	}
	slots := []float64{20.5, 21.25, 19.75, 22}
	v, err = timeLoop(200000, time.Nanosecond, func() error { _, err := bound.EvalFloats(slots, nil); return err })
	if err != nil {
		return err
	}
	m.set("expr.eval_bound_ns", "ns", v, 200000*probeRounds)
	env := expr.Env{"a": 20.5, "b": 21.25, "c": 19.75, "d": 22.0}
	v, err = timeLoop(200000, time.Nanosecond, func() error { _, err := prog.EvalNumber(env); return err })
	if err != nil {
		return err
	}
	m.set("expr.eval_env_ns", "ns", v, 200000*probeRounds)
	return nil
}

func probeSubscribe(_ *sandbox, m metrics) error {
	// Publish: one reading offered to the push workload's 256 filters,
	// every sink accepting at once.
	hub := subscribe.NewHub()
	defer hub.Close()
	sink := nullSink{never: make(chan struct{})}
	for i := 0; i < pushSubs; i++ {
		_, _, f := pushFilter(i)
		if err := hub.Subscribe(fmt.Sprint("probe-", i), f, sink, false, 0); err != nil {
			return err
		}
	}
	now := time.Now()
	n := 0
	v, err := timeLoop(500, time.Microsecond, func() error {
		n++
		hub.Publish(probe.Reading{Sensor: pushSensorName(n % pushSensors), Kind: "stamp", Unit: "us",
			Value: float64(n), Timestamp: now})
		return nil
	})
	if err != nil {
		return err
	}
	m.set("subscribe.publish_us", "us", v, 500*probeRounds)

	// Codec: one single-reading update, the steady-state shape.
	var enc subscribe.UpdateEncoder
	var dec subscribe.UpdateDecoder
	u := &subscribe.Update{SeqNo: 1, Readings: []probe.Reading{{Sensor: pushSensorName(0), Kind: "stamp", Unit: "us", Value: 123456, Timestamp: now}}}
	buf := enc.Append(nil, u) // the first update carries the sensor's metadata
	if _, err := dec.Decode(buf); err != nil {
		return err
	}
	v, err = timeLoop(200000, time.Nanosecond, func() error {
		u.SeqNo++
		u.Readings[0].Value++
		buf = enc.Append(buf[:0], u)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("subscribe.encode_ns", "ns", v, 200000*probeRounds)
	v, err = timeLoop(200000, time.Nanosecond, func() error { _, err := dec.Decode(buf); return err })
	if err != nil {
		return err
	}
	m.set("subscribe.decode_ns", "ns", v, 200000*probeRounds)
	return nil
}

func probeRegistry(_ *sandbox, m metrics) error {
	lus := registry.New("probe-lus", clockwork.Real())
	defer lus.Close()
	desc := remote.ProxyDesc{Kind: remote.AccessorKind, Locator: "127.0.0.1:1", Service: svcStub}
	for i := 0; i < registryItems; i++ {
		if _, err := lus.Register(staticItem(i, desc), registryLease); err != nil {
			return err
		}
	}
	i := 0
	v, err := timeLoop(5000, time.Microsecond, func() error {
		i++
		_, err := lus.LookupOne(registry.ByName(staticName(i%registryItems), sensor.AccessorType))
		return err
	})
	if err != nil {
		return err
	}
	m.set("registry.lookup_one_us", "us", v, 5000*probeRounds)
	v, err = timeLoop(500, time.Microsecond, func() error {
		i++
		tmpl := registry.Template{Types: []string{sensor.AccessorType}, Attributes: attr.Set{locationOf(i % registryLocations)}}
		if got := len(lus.Lookup(tmpl, registryBrowseMax)); got != registryItems/registryLocations {
			return fmt.Errorf("registry probe: browse matched %d items", got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("registry.lookup_browse_us", "us", v, 500*probeRounds)
	v, err = timeLoop(1000, time.Microsecond, func() error {
		i++
		reg, err := lus.Register(churnItem(uint64(i), desc), registryLease)
		if err != nil {
			return err
		}
		return lus.Deregister(reg.ServiceID)
	})
	if err != nil {
		return err
	}
	m.set("registry.register_us", "us", v, 1000*probeRounds)
	return nil
}

func probeSpaceWAL(sb *sandbox, m metrics) error {
	sp := space.New(clockwork.Real(), lease.Policy{})
	defer sp.Close()
	entry := space.NewEntry("bench.probe", "k", "v")
	v, err := timeLoop(20000, time.Nanosecond, func() error {
		if _, err := sp.Write(entry, nil, time.Minute); err != nil {
			return err
		}
		_, err := sp.Take(entry, nil, time.Second)
		return err
	})
	if err != nil {
		return err
	}
	m.set("space.write_take_ns", "ns", v, 20000*probeRounds)

	// The log as the jobs workload runs it: fsync per append, on the same
	// filesystem.
	dir, err := sb.subdir("probe-wal-")
	if err != nil {
		return err
	}
	log, err := wal.Open(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	record := make([]byte, 256)
	v, err = timeLoop(100, time.Microsecond, func() error { _, err := log.Append(record); return err })
	if err != nil {
		return err
	}
	m.set("wal.append_sync_us", "us", v, 100*probeRounds)
	batch := make([][]byte, jobTasks)
	for i := range batch {
		batch[i] = record
	}
	v, err = timeLoop(100, time.Microsecond, func() error { _, err := log.AppendBatch(batch); return err })
	if err != nil {
		return err
	}
	m.set("wal.append_batch8_us", "us", v, 100*probeRounds)
	return nil
}
