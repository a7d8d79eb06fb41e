package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/remote"
	"sensorcer/internal/repl"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/srpc"
	"sensorcer/internal/subscribe"
	"sensorcer/internal/wal"
)

// The node role is the bench binary re-executed as one process of the
// system under test. sensorcerd has no subcommand that hosts a composite
// sensor, a multi-sensor hub or a Spacer, so the node composes the same
// public constructors sensorcerd composes, from a spec the driver writes
// to its stdin, and serves until stdin reaches EOF or it is signalled.

// Node roles.
const (
	roleLeaf   = "leaf"   // one ESP: the composite's remote child
	roleRead   = "read"   // the polled ESP and the Fig. 3 composite
	rolePush   = "push"   // sampled ESPs -> sources -> hub -> subscription streams
	roleJobs   = "jobs"   // replicated space primary, Spacer and workers
	roleBackup = "backup" // the shard's backup replica, as `sensorcerd shard` hosts it
	roleStub   = "stub"   // live accessor endpoints for registry descriptors
	roleRef    = "ref"    // the reference: a bare TCP echo, no code of the program
)

// Service names the driver and the node agree on.
const (
	svcESP       = "Poll-ESP"
	svcComposite = "Fig3-Composite"
	svcLeaf      = "Leaf-ESP"
	svcStub      = "Stub-ESP"
	shardName    = "s0"
	adderType    = "Adder"
	pathJobID    = "job/id"
)

// Push workload shape: four sensors sampling at the paper-scale cadence.
const (
	pushSensors  = 4
	pushInterval = 20 * time.Millisecond // 50 Hz
)

func pushSensorName(i int) string { return fmt.Sprintf("Push-%d", i) }

// nodeSpec tells a node what to host.
type nodeSpec struct {
	Role  string `json:"role"`
	Trace bool   `json:"trace,omitempty"`
	// Values seed the constant probes of the read and leaf roles.
	Values []float64 `json:"values,omitempty"`
	// LeafAddr locates the leaf node (read role).
	LeafAddr string `json:"leaf_addr,omitempty"`
	// EpochNS is the run epoch pushed readings are stamped against.
	EpochNS int64 `json:"epoch_ns,omitempty"`
	// ShardAddr locates the backup node (jobs role); WALDir places the
	// replica's log (jobs and backup roles).
	ShardAddr string `json:"shard_addr,omitempty"`
	WALDir    string `json:"wal_dir,omitempty"`
}

// Control methods every node serves beside its workload's own.
const (
	methodStats    = "bench.stats"
	methodSpans    = "bench.spans"
	methodSampling = "bench.sampling"
	methodJob      = "bench.job"
	methodJobCheck = "bench.jobcheck"
	methodWriteAck = "bench.writeack"
)

// nodeStats is a node's answer to bench.stats.
type nodeStats struct {
	Mallocs   uint64 `json:"mallocs"`
	GCPauseNS uint64 `json:"gc_pause_ns"`
	// Push role: hub subscriptions, and per sensor the samples taken, the
	// source evaluations published and the last sample's stamp.
	Subscriptions int       `json:"subscriptions,omitempty"`
	Samples       []uint64  `json:"samples,omitempty"`
	Evals         []uint64  `json:"evals,omitempty"`
	Last          []float64 `json:"last,omitempty"`
}

type samplingParams struct {
	On bool `json:"on"`
}

type jobParams struct {
	ID uint64    `json:"id"`
	A  []float64 `json:"a"`
	B  []float64 `json:"b"`
}

type jobResult struct {
	Sums []float64 `json:"sums"`
}

// jobCheck is the end-of-run state of the jobs role: entries still in
// the space, and the log positions of primary and backup.
type jobCheck struct {
	Leftover    int    `json:"leftover"`
	PrimaryNext uint64 `json:"primary_next"`
	BackupNext  uint64 `json:"backup_next"`
}

type writeAckParams struct {
	N int `json:"n"`
}

// runNode is the node role's main.
func runNode() error {
	in := bufio.NewReader(os.Stdin)
	line, err := in.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading spec: %w", err)
	}
	var spec nodeSpec
	if err := json.Unmarshal(line, &spec); err != nil {
		return fmt.Errorf("parsing spec: %w", err)
	}
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer server.Close()

	var tr *tracer
	if spec.Trace {
		tr = &tracer{}
		srpc.HandleFunc(server, methodSpans, func(struct{}) (any, error) { return tr.take(), nil })
	}
	stats := func(*nodeStats) {}
	var cleanup func()
	addrs := []string{server.Addr()}
	switch spec.Role {
	case roleLeaf:
		cleanup, err = hostLeaf(server, spec)
	case roleRead:
		cleanup, err = hostRead(server, spec, tr)
	case rolePush:
		cleanup, stats, err = hostPush(server, spec, tr)
	case roleJobs:
		cleanup, err = hostJobs(server, spec, tr)
	case roleBackup:
		cleanup, err = hostBackup(server, spec)
	case roleStub:
		var more []string
		cleanup, more, err = hostStub(server)
		addrs = append(addrs, more...)
	case roleRef:
		var echo string
		cleanup, echo, err = hostRef()
		addrs = append(addrs, echo)
	default:
		err = fmt.Errorf("unknown role %q", spec.Role)
	}
	if err != nil {
		return err
	}
	defer cleanup()
	srpc.HandleFunc(server, methodStats, func(struct{}) (any, error) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := nodeStats{Mallocs: ms.Mallocs, GCPauseNS: ms.PauseTotalNs}
		stats(&st)
		return st, nil
	})

	fmt.Printf("bench node %s%s%s\n", spec.Role, servingMarker, strings.Join(addrs, " "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	eof := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, in)
		close(eof)
	}()
	select {
	case <-sig:
	case <-eof:
	}
	return nil
}

// constESP is an on-demand ESP over a probe that always reads v.
func constESP(name string, v float64) *sensor.ESP {
	return sensor.NewESP(name, probe.NewReplayProbe(name, "temperature", "celsius", []float64{v}, true, nil))
}

func hostLeaf(server *srpc.Server, spec nodeSpec) (func(), error) {
	if len(spec.Values) < 1 {
		return nil, errors.New("leaf role needs one value")
	}
	esp := constESP(svcLeaf, spec.Values[0])
	remote.ServeAccessor(server, svcLeaf, esp)
	return func() { _ = esp.Close() }, nil
}

// stubListeners is how many endpoints the stub role serves its accessor
// on. RegistrarClient.Lookup dials one stub per returned item and the
// driver closes it, which leaves the connection's local port in TIME_WAIT;
// the capacity phase dials some 9000 stubs a second, and against a single
// endpoint that fills the 28 000-port ephemeral range in three seconds,
// after which every connect() scans the range for a port it may reuse and
// a lookup takes milliseconds. A port is only taken per destination, so 16
// destinations keep each one's share of the range a few percent full —
// as it would be in a federation whose 1024 services are not one process.
const stubListeners = 16

func hostStub(server *srpc.Server) (func(), []string, error) {
	esp := constESP(svcStub, 1)
	remote.ServeAccessor(server, svcStub, esp)
	var extra []*srpc.Server
	cleanup := func() {
		for _, s := range extra {
			s.Close()
		}
		_ = esp.Close()
	}
	var addrs []string
	for len(extra) < stubListeners-1 {
		s := srpc.NewServer()
		if err := s.Listen("127.0.0.1:0"); err != nil {
			cleanup()
			return nil, nil, err
		}
		remote.ServeAccessor(s, svcStub, esp)
		extra = append(extra, s)
		addrs = append(addrs, s.Addr())
	}
	return cleanup, addrs, nil
}

// walNoSync runs a replica's log without an fsync per append. The
// benchmark may only write inside its checkout, and the disk under it is
// not the program's to measure: on the virtual machine the baseline was
// taken on, the block device is rate-limited, so an fsync costs 0.19 ms
// until a token bucket drains and 7.8 ms from then on, and a job — four
// serial commits on two replicas — takes 11 ms or 160 ms depending on what
// ran before it. The records are still framed, written and shipped; only
// the wait for the device is left out. (The wal.* layer probes keep it.)
var walNoSync = repl.WithWALOptions(wal.WithSyncEveryAppend(false))

// hostBackup hosts the shard's backup replica the way `sensorcerd shard`
// does — a repl.Node over a WAL directory behind remote.ServeReplication
// — but without the per-append fsync, which that subcommand has no flag
// to turn off.
func hostBackup(server *srpc.Server, spec nodeSpec) (func(), error) {
	node, err := repl.NewNode(shardName+"-backup", clockwork.Real(), lease.Policy{Max: lease.DefaultMax}, spec.WALDir, walNoSync)
	if err != nil {
		return nil, err
	}
	remote.ServeReplication(server, shardName, node)
	return func() { _ = node.Close() }, nil
}

// readValues is how many seeded constants the read workload uses: the
// polled ESP, two local children, the sub-composite's two children, and
// the leaf node's ESP.
const readValues = 6

// expectedRead returns the answers the read workload must see.
func expectedRead(v []float64) (esp, composite float64) {
	return v[0], (v[1] + v[2] + (v[3]+v[4])/2 + v[5]) / 4
}

// hostRead builds the paper's Fig. 3 read: a composite averaging two
// local ESPs, a local sub-composite and one ESP in another process.
func hostRead(server *srpc.Server, spec nodeSpec, tr *tracer) (func(), error) {
	if len(spec.Values) < readValues {
		return nil, fmt.Errorf("read role needs %d values", readValues)
	}
	v := spec.Values
	polled := constESP(svcESP, v[0])
	local := []*sensor.ESP{constESP("Child-A", v[1]), constESP("Child-B", v[2]), constESP("Sub-A", v[3]), constESP("Sub-B", v[4])}
	leaf, err := remote.NewAccessorClient(remote.ProxyDesc{Kind: remote.AccessorKind, Locator: spec.LeafAddr, Service: svcLeaf}, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// seam wraps an accessor with a timing span when the node is traced.
	seam := func(acc sensor.DataAccessor, name, parent string) sensor.DataAccessor {
		if tr == nil {
			return acc
		}
		return &seamAccessor{DataAccessor: acc, t: tr, name: name, parent: parent}
	}
	sub := sensor.NewCSP("Sub-Composite")
	for _, c := range local[2:] {
		if _, err := sub.AddChild(c); err != nil {
			return nil, err
		}
	}
	if err := sub.SetExpression("(a+b)/2"); err != nil {
		return nil, err
	}
	csp := sensor.NewCSP(svcComposite)
	for _, c := range []sensor.DataAccessor{local[0], local[1], sub, leaf} {
		if _, err := csp.AddChild(seam(c, "sensor.child."+c.SensorName(), "sensor.csp")); err != nil {
			return nil, err
		}
	}
	if err := csp.SetExpression("(a+b+c+d)/4"); err != nil {
		return nil, err
	}
	remote.ServeAccessor(server, svcESP, seam(polled, "sensor.esp", "remote.read"))
	remote.ServeAccessor(server, svcComposite, seam(csp, "sensor.csp", "remote.read"))
	return func() {
		leaf.Close()
		_ = polled.Close()
		for _, e := range local {
			_ = e.Close()
		}
	}, nil
}

// stampProbe reads the time since the run epoch in whole microseconds,
// so a pushed reading carries its own creation time through the real
// update codec (which quantizes values to wire.Quantum = 0.01).
type stampProbe struct {
	name  string
	epoch time.Time
}

func (p stampProbe) Info() probe.Info {
	return probe.Info{Name: p.name, Technology: "bench-stamp", Kind: "stamp", Unit: "us"}
}

func (p stampProbe) Read() (probe.Reading, error) {
	now := time.Now()
	return probe.Reading{Sensor: p.name, Kind: "stamp", Unit: "us",
		Value: float64(now.Sub(p.epoch) / time.Microsecond), Timestamp: now}, nil
}

func (p stampProbe) Close() error { return nil }

func hostPush(server *srpc.Server, spec nodeSpec, tr *tracer) (func(), func(*nodeStats), error) {
	epoch := time.Unix(0, spec.EpochNS)
	hub := subscribe.NewHub()
	var esps []*sensor.ESP
	var sources []*subscribe.Source
	add := func(name string, interval time.Duration) error {
		esp := sensor.NewESP(name, stampProbe{name: name, epoch: epoch}, sensor.WithSampleInterval(interval))
		var reader subscribe.Reader = esp
		if tr != nil {
			reader = &seamReader{inner: esp, t: tr, epoch: epoch}
		}
		src := subscribe.NewSource(hub, reader)
		src.Start()
		if _, err := esp.Events().Register(sensor.EventReadingUpdate, src.Listener(), lease.DefaultMax); err != nil {
			return err
		}
		esps = append(esps, esp)
		sources = append(sources, src)
		return nil
	}
	for i := 0; i < pushSensors; i++ {
		if err := add(pushSensorName(i), pushInterval); err != nil {
			return nil, nil, err
		}
	}
	remote.ServeSubscriptions(server, hub)
	// Sampling starts only when the driver says so, after its
	// subscriptions are in place: every reading is then offered to every
	// subscription, which is what the delivered+dropped check counts on.
	srpc.HandleFunc(server, methodSampling, func(p samplingParams) (any, error) {
		for _, esp := range esps {
			if p.On {
				esp.Start()
			} else {
				esp.Stop()
			}
		}
		return struct{}{}, nil
	})
	stats := func(st *nodeStats) {
		st.Subscriptions = hub.Count()
		for i, esp := range esps {
			last, _ := esp.Store().Latest()
			st.Samples = append(st.Samples, esp.Store().Total())
			st.Evals = append(st.Evals, sources[i].Evals())
			st.Last = append(st.Last, last.Value)
		}
	}
	cleanup := func() {
		for i, esp := range esps {
			_ = esp.Close()
			sources[i].Stop()
		}
		hub.Close()
	}
	return cleanup, stats, nil
}

// jobTasks is how many parallel tasks one job carries.
const jobTasks = 8

// hostJobs builds a replicated exertion space: a repl.Node primary
// shipping synchronously to the backup node's replica, a Spacer and two
// pull-mode workers. Only tasks cross remote.ServicerClient, so the
// driver submits a job through the bench-owned bench.job method.
func hostJobs(server *srpc.Server, spec nodeSpec, tr *tracer) (func(), error) {
	clock := clockwork.Real()
	primary, err := repl.NewNode(shardName+"-primary", clock, lease.Policy{Max: lease.DefaultMax}, spec.WALDir, walNoSync)
	if err != nil {
		return nil, err
	}
	backup, err := remote.NewReplicationClient(
		remote.ProxyDesc{Kind: remote.ReplicationKind, Locator: spec.ShardAddr, Service: shardName}, 5*time.Second)
	if err != nil {
		_ = primary.Close()
		return nil, err
	}
	const epoch = 2
	var follower repl.Follower = backup
	if tr != nil {
		follower = &seamFollower{Follower: backup, t: tr}
	}
	if _, err = primary.Promote(epoch - 1); err == nil {
		_, err = primary.AttachBackup(epoch, follower, false)
	}
	if err != nil {
		backup.Close()
		_ = primary.Close()
		return nil, err
	}
	sp := primary.CurrentSpace()
	spacerOps, workerOps := sorcer.SpaceOps(sp), sorcer.SpaceOps(sp)
	if tr != nil {
		spacerOps = &seamSpace{inner: sp, t: tr, side: "spacer"}
		workerOps = &seamSpace{inner: sp, t: tr, side: "worker"}
	}
	adder := sorcer.NewProvider("Adder-1", adderType)
	add := func(ctx *sorcer.Context) error {
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
	}
	if tr != nil {
		plain := add
		add = func(ctx *sorcer.Context) (err error) {
			id, _ := ctx.Float(pathJobID)
			tr.timed("sorcer.provider_op", "", uint64(id), func() { err = plain(ctx) })
			return err
		}
	}
	adder.RegisterOp("add", add)
	workers := []*sorcer.SpaceWorker{
		sorcer.NewSpaceWorker(workerOps, adder, adderType),
		sorcer.NewSpaceWorker(workerOps, adder, adderType),
	}
	spacer := sorcer.NewSpacer("Spacer-1", spacerOps, sorcer.WithTaskTimeout(30*time.Second))

	srpc.HandleFunc(server, methodJob, func(p jobParams) (any, error) {
		if len(p.A) != jobTasks || len(p.B) != jobTasks {
			return nil, fmt.Errorf("job %d: want %d argument pairs", p.ID, jobTasks)
		}
		tasks := make([]sorcer.Exertion, jobTasks)
		for i := range tasks {
			tasks[i] = sorcer.NewTask(fmt.Sprintf("add-%d", i), sorcer.Sig(adderType, "add"),
				sorcer.NewContextFrom("arg/a", p.A[i], "arg/b", p.B[i], pathJobID, float64(p.ID)))
		}
		job := sorcer.NewJob("bench-job", sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, tasks...)
		var err error
		if tr != nil {
			tr.timed("sorcer.job", "bench.job", p.ID, func() { _, err = spacer.Service(job, nil) })
		} else {
			_, err = spacer.Service(job, nil)
		}
		if err != nil {
			return nil, err
		}
		res := jobResult{Sums: make([]float64, jobTasks)}
		for i, t := range tasks {
			if res.Sums[i], err = t.Context().Float("result/value"); err != nil {
				return nil, err
			}
		}
		return res, nil
	})
	srpc.HandleFunc(server, methodJobCheck, func(struct{}) (any, error) {
		// An empty ship is the follower's position probe.
		next, err := backup.ShipBatch(epoch, 1, nil)
		if err != nil {
			return nil, err
		}
		return jobCheck{
			Leftover:    sp.Count(space.NewEntry(sorcer.EnvelopeKind)) + sp.Count(space.NewEntry(sorcer.ResultKind)),
			PrimaryNext: primary.Log().NextSeq(),
			BackupNext:  next,
		}, nil
	})
	// One replicated single-entry write, acknowledged: journal append,
	// ship, backup append. Returns the mean in microseconds.
	srpc.HandleFunc(server, methodWriteAck, func(p writeAckParams) (any, error) {
		entry := space.NewEntry("bench.probe", "k", "v")
		var total time.Duration
		for i := 0; i < p.N; i++ {
			start := time.Now()
			if _, err := sp.Write(entry, nil, time.Minute); err != nil {
				return nil, err
			}
			total += time.Since(start)
			if _, err := sp.Take(entry, nil, time.Second); err != nil {
				return nil, err
			}
		}
		return float64(total) / float64(time.Microsecond) / float64(p.N), nil
	})
	return func() {
		for _, w := range workers {
			w.Stop()
		}
		backup.Close()
		_ = primary.Close()
	}, nil
}
