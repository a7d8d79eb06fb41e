package remote

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/repl"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/srpc"
	"sensorcer/internal/wal"
)

// countingProxy is a transparent TCP forwarder in front of an srpc
// server: everything either peer writes crosses it, so its byte counter
// is the ground-truth bytes-on-wire number the codec benchmarks report,
// and its accept and live-connection counters are what the provider's
// listener sees — no cooperation from the transport needed.
type countingProxy struct {
	ln      net.Listener
	backend string
	bytes   atomic.Int64
	accepts atomic.Int64
	live    atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]bool
	wg    sync.WaitGroup
}

func startCountingProxy(tb testing.TB, backend string) *countingProxy {
	return startCountingProxyAt(tb, "127.0.0.1:0", backend)
}

// startCountingProxyAt listens on a given address — a provider coming
// back where it was.
func startCountingProxyAt(tb testing.TB, addr, backend string) *countingProxy {
	tb.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	p := &countingProxy{ln: ln, backend: backend, conns: make(map[net.Conn]bool)}
	p.wg.Add(1)
	go p.acceptLoop()
	tb.Cleanup(p.close)
	return p
}

func (p *countingProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		p.conns[conn], p.conns[up] = true, true
		p.mu.Unlock()
		p.accepts.Add(1)
		p.live.Add(1)
		p.wg.Add(1)
		go p.relay(conn, up)
	}
}

// relay pipes both directions until either ends, which ends the pair.
func (p *countingProxy) relay(conn, up net.Conn) {
	defer p.wg.Done()
	done := make(chan struct{}, 2)
	pipe := func(dst, src net.Conn) {
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				p.bytes.Add(int64(n))
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		dst.Close()
		src.Close()
		done <- struct{}{}
	}
	go pipe(up, conn)
	go pipe(conn, up)
	<-done
	<-done
	p.mu.Lock()
	delete(p.conns, conn)
	delete(p.conns, up)
	p.mu.Unlock()
	p.live.Add(-1)
}

// close kills the proxy as a dying provider process would: listener and
// every open connection.
func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

// codecBenchmarks runs fn as the "binary" sub-benchmark. The name keeps
// these benchmarks' keys lined up with BENCH_PR8/PR9.json, where a
// "json" leg — the since-retired line protocol — ran beside it.
func codecBenchmarks(b *testing.B, fn func(b *testing.B)) {
	b.Run("binary", fn)
}

// benchmarkWriteAckSRPC acks writes against a loopback-srpc follower,
// reporting wire bytes per acknowledged write alongside ns/op.
func benchmarkWriteAckSRPC(b *testing.B) {
	policy := lease.Policy{Max: 24 * time.Hour}
	primary, err := repl.NewNode("p", clockwork.Real(), policy, b.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = primary.Close() })
	backup, err := repl.NewNode("b", clockwork.Real(), policy, b.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = backup.Close() })

	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })
	proxy := startCountingProxy(b, server.Addr())
	desc := ServeReplication(server, "s0", backup)
	desc.Locator = proxy.addr()
	follower, err := NewReplicationClient(desc, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { follower.Close() })

	sp, err := primary.Promote(1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := primary.AttachBackup(2, follower, false); err != nil {
		b.Fatal(err)
	}
	proxy.bytes.Store(0) // don't charge the attach resync to the ops
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			b.Fatal(err)
		}
		if i%8192 == 8191 {
			b.StopTimer()
			for {
				got, terr := sp.TakeAny(space.NewEntry("job"), 4096, nil, 0)
				if terr != nil || len(got) == 0 {
					break
				}
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(proxy.bytes.Load())/float64(b.N), "wirebytes/op")
}

// BenchmarkWriteAckReplicatedSRPC is the wire variant of the repl
// package's write-ack benchmarks: every ack waits for a synchronous
// ShipBatch across a loopback srpc connection.
func BenchmarkWriteAckReplicatedSRPC(b *testing.B) {
	codecBenchmarks(b, benchmarkWriteAckSRPC)
}

// BenchmarkRegistrarLookupSRPC measures the discovery hot path end to
// end: a remote template lookup returning 16 matches (types + attribute
// entries) across the wire. Items carry no proxy
// descriptors so the client's stub materialization cost stays out of the
// RPC measurement.
func BenchmarkRegistrarLookupSRPC(b *testing.B) {
	codecBenchmarks(b, func(b *testing.B) {
		lus := registry.New("bench-lus", clockwork.Real())
		b.Cleanup(func() { lus.Close() })
		for i := 0; i < 32; i++ {
			item := registry.ServiceItem{
				Types: []string{"SensorDataAccessor"},
				Attributes: attr.Set{
					attr.New("SensorType", "kind", "temperature", "unit", "C"),
					attr.New("Location", "building", "B1", "floor", int64(i%4)),
				},
			}
			if _, err := lus.Register(item, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
		server := srpc.NewServer()
		if err := server.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { server.Close() })
		ServeRegistrar(server, lus)
		proxy := startCountingProxy(b, server.Addr())
		rc, err := NewRegistrarClient(proxy.addr(), 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rc.Close() })
		tmpl := registry.Template{Types: []string{"SensorDataAccessor"}}
		if got := rc.Lookup(tmpl, 16); len(got) != 16 {
			b.Fatalf("warmup lookup returned %d items", len(got))
		}
		proxy.bytes.Store(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := rc.Lookup(tmpl, 16); len(got) != 16 {
				b.Fatalf("lookup returned %d items", len(got))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(proxy.bytes.Load())/float64(b.N), "wirebytes/op")
	})
}

// BenchmarkSpacerBatchSRPC is the PR 5 pull-mode dispatch benchmark with
// the exertion space's journal shipping to a remote backup over srpc:
// every envelope write and take acks through the wire, so the codec
// shows up in end-to-end job latency, not just in microbenchmarks.
func BenchmarkSpacerBatchSRPC(b *testing.B) {
	const tasks = 8
	codecBenchmarks(b, func(b *testing.B) {
		policy := lease.Policy{Max: 24 * time.Hour}
		primary, err := repl.NewNode("p", clockwork.Real(), policy, b.TempDir(),
			repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = primary.Close() })
		backup, err := repl.NewNode("b", clockwork.Real(), policy, b.TempDir(),
			repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = backup.Close() })
		server := srpc.NewServer()
		if err := server.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { server.Close() })
		follower, err := NewReplicationClient(ServeReplication(server, "s0", backup), 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { follower.Close() })
		sp, err := primary.Promote(1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := primary.AttachBackup(2, follower, false); err != nil {
			b.Fatal(err)
		}

		w := sorcer.NewSpaceWorker(sp, benchAdder("Adder-1"), "Adder")
		spacer := sorcer.NewSpacer("Spacer-1", sp, sorcer.WithTaskTimeout(30*time.Second))
		b.Cleanup(func() { w.Stop() })
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

// benchAdder is a minimal Adder provider for dispatch benchmarks.
func benchAdder(name string) *sorcer.Provider {
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
