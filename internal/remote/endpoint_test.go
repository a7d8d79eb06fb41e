package remote

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/registry"
	"sensorcer/internal/sensor"
	"sensorcer/internal/srpc"
)

// tableEntries snapshots the endpoint table's size and whether it holds
// the locator.
func tableEntries(locator string) (n int, held bool) {
	endpoints.mu.Lock()
	defer endpoints.mu.Unlock()
	_, held = endpoints.m[locator]
	return len(endpoints.m), held
}

// provider is an ESP served over srpc behind a counting proxy.
type provider struct {
	server *srpc.Server
	proxy  *countingProxy
	desc   ProxyDesc
}

func newProvider(t *testing.T, name, token string, value float64) *provider {
	t.Helper()
	server := srpc.NewServer()
	server.SetToken(token)
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	esp := newESP(name, value)
	desc := ServeAccessor(server, name, esp)
	t.Cleanup(func() {
		server.Close()
		esp.Close()
	})
	proxy := startCountingProxy(t, server.Addr()) // cleaned up first
	desc.Locator = proxy.addr()
	return &provider{server: server, proxy: proxy, desc: desc}
}

func TestLookupDialsNoProvider(t *testing.T) {
	r := newRemoteRig(t)
	p := newProvider(t, "Shared", "", 20)
	for i := 0; i < 8; i++ {
		if _, err := r.registrar.Register(registry.ServiceItem{
			Service: p.desc, Types: []string{sensor.AccessorType},
			Attributes: attr.Set{attr.Name("Shared"), attr.Comment(string(rune('a' + i)))},
		}, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := tableEntries(p.desc.Locator)
	for i := 0; i < 1000; i++ {
		items := r.registrar.Lookup(registry.ByName("Shared", sensor.AccessorType), 0)
		if len(items) != 8 {
			t.Fatalf("lookup %d = %d items", i, len(items))
		}
		for _, it := range items {
			acc, ok := it.Service.(*AccessorClient)
			if !ok {
				t.Fatalf("item %s carries %T", it.ID.Short(), it.Service)
			}
			acc.Close() // never called: nothing to release
		}
	}
	if n := p.proxy.accepts.Load(); n != 0 {
		t.Fatalf("8000 looked-up stubs opened %d provider connections", n)
	}
	if after, held := tableEntries(p.desc.Locator); held || after != before {
		t.Fatalf("lookups left the endpoint table at %d entries (was %d, held=%v)", after, before, held)
	}
}

func TestStubsShareOneConnection(t *testing.T) {
	p := newProvider(t, "Busy", "", 7)
	baseline := runtime.NumGoroutine()
	before, _ := tableEntries(p.desc.Locator)

	const n = 64
	stubs := make([]*AccessorClient, n)
	for i := range stubs {
		var err error
		if stubs[i], err = NewAccessorClient(p.desc, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// All 64 make their first call at once, from cold.
	start := make(chan struct{})
	errs := make(chan error, n)
	for _, s := range stubs {
		go func(s *AccessorClient) {
			<-start
			r, err := s.GetValue()
			if err == nil && r.Value != 7 {
				err = errors.New("wrong value")
			}
			errs <- err
		}(s)
	}
	close(start)
	for range stubs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := p.proxy.accepts.Load(); got != 1 {
		t.Fatalf("%d stubs dialled %d connections, want 1", n, got)
	}

	// Every Close but the last leaves the connection up.
	for _, s := range stubs[1:] {
		s.Close()
		s.Close() // idempotent: one reference, given back once
	}
	if _, err := stubs[0].GetValue(); err != nil {
		t.Fatalf("read after the other %d stubs closed: %v", n-1, err)
	}
	if _, err := stubs[1].GetValue(); !errors.Is(err, srpc.ErrClientClosed) {
		t.Fatalf("call on a closed stub = %v, want ErrClientClosed", err)
	}
	if live := p.proxy.live.Load(); live != 1 {
		t.Fatalf("live connections = %d, want 1", live)
	}
	stubs[0].Close()
	// The provider sees the connection end.
	waitFor(t, func() bool { return p.proxy.live.Load() == 0 })
	if after, held := tableEntries(p.desc.Locator); held || after != before {
		t.Fatalf("endpoint table holds %d entries after the last Close (was %d, held=%v)", after, before, held)
	}
	if got := p.proxy.accepts.Load(); got != 1 {
		t.Fatalf("accepts = %d after close, want 1", got)
	}
	// Goroutines return to baseline.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

func TestUnusedAndClosedStubsNeverDial(t *testing.T) {
	p := newProvider(t, "Idle", "", 1)
	before, _ := tableEntries(p.desc.Locator)
	unused, err := NewAccessorClient(p.desc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	unused.Close() // no-op: it holds nothing
	if _, err := unused.GetValue(); !errors.Is(err, srpc.ErrClientClosed) {
		t.Fatalf("call after Close = %v, want ErrClientClosed", err)
	}
	svc, err := NewServicerClient(ProxyDesc{Kind: ServicerKind, Locator: p.desc.Locator, Service: "Idle"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if got := p.proxy.accepts.Load(); got != 0 {
		t.Fatalf("unused stubs dialled %d connections", got)
	}
	if after, held := tableEntries(p.desc.Locator); held || after != before {
		t.Fatalf("unused stubs left %d table entries (was %d, held=%v)", after, before, held)
	}
}

func TestStubSurvivesProviderRestart(t *testing.T) {
	p := newProvider(t, "Phoenix", "", 3)
	stub, err := NewAccessorClient(p.desc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	if _, err := stub.GetValue(); err != nil {
		t.Fatal(err)
	}

	// The provider dies: while it is down every call fails, each naming
	// the endpoint it could not reach or the connection it lost.
	p.proxy.close()
	waitFor(t, func() bool {
		_, err := stub.GetValue()
		if err == nil {
			t.Fatal("read from a dead provider succeeded")
		}
		return strings.Contains(err.Error(), "dialing "+p.desc.Locator)
	})

	// It comes back on the same address: the old stub's next call redials,
	// once, and succeeds.
	back := startCountingProxyAt(t, p.desc.Locator, p.server.Addr())
	r, err := stub.GetValue()
	if err != nil || r.Value != 3 {
		t.Fatalf("read after restart = %+v, %v", r, err)
	}
	if _, err := stub.GetValue(); err != nil {
		t.Fatal(err)
	}
	if got := back.accepts.Load(); got != 1 {
		t.Fatalf("restarted provider accepted %d connections, want 1", got)
	}
}

func TestStubsCarryTheirOwnTokenOnASharedConnection(t *testing.T) {
	p := newProvider(t, "Vault", "open-sesame", 9)
	right, _ := NewAccessorClient(p.desc, time.Second)
	wrong, _ := NewAccessorClient(p.desc, time.Second)
	bare, _ := NewAccessorClient(p.desc, time.Second)
	defer right.Close()
	defer wrong.Close()
	defer bare.Close()
	right.SetToken("open-sesame")
	wrong.SetToken("open-says-me")

	for _, s := range []*AccessorClient{wrong, bare} {
		if _, err := s.GetValue(); err == nil || !strings.Contains(err.Error(), "authentication failed") {
			t.Fatalf("read without the secret = %v, want authentication failed", err)
		}
	}
	if r, err := right.GetValue(); err != nil || r.Value != 9 {
		t.Fatalf("read with the secret = %+v, %v", r, err)
	}
	// And again the other way round: the refusals did not poison the
	// connection, nor the success authenticate it.
	if _, err := wrong.GetValue(); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("second read with the wrong secret = %v", err)
	}
	if got := p.proxy.accepts.Load(); got != 1 {
		t.Fatalf("three stubs dialled %d connections, want 1", got)
	}
}
