package remote

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/srpc"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func newESP(name string, vals ...float64) *sensor.ESP {
	return sensor.NewESP(name, probe.NewReplayProbe(name, "temperature", "celsius", vals, true, nil))
}

func TestAccessorOverSRPC(t *testing.T) {
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	esp := newESP("Neem-Sensor", 21.5, 22.5)
	defer esp.Close()
	desc := ServeAccessor(server, "Neem-Sensor", esp)
	if desc.Kind != AccessorKind || desc.Locator == "" {
		t.Fatalf("desc = %+v", desc)
	}

	client, err := NewAccessorClient(desc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.SensorName() != "Neem-Sensor" {
		t.Fatalf("SensorName = %q", client.SensorName())
	}
	r, err := client.GetValue()
	if err != nil || r.Value != 21.5 || r.Unit != "celsius" {
		t.Fatalf("GetValue = %+v, %v", r, err)
	}
	client.GetValue()
	readings := client.GetReadings(0)
	if len(readings) != 2 {
		t.Fatalf("GetReadings = %d", len(readings))
	}
	info := client.Describe()
	if info.Kind != "temperature" || info.Technology != "replay" {
		t.Fatalf("Describe = %+v", info)
	}
}

func TestAccessorClientWrongKind(t *testing.T) {
	if _, err := NewAccessorClient(ProxyDesc{Kind: "other"}, time.Second); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestAccessorErrorPropagates(t *testing.T) {
	server := srpc.NewServer()
	server.Listen("127.0.0.1:0")
	defer server.Close()
	dead := sensor.NewESP("dead", probe.NewReplayProbe("dead", "k", "u", nil, false, nil))
	defer dead.Close()
	desc := ServeAccessor(server, "dead", dead)
	client, err := NewAccessorClient(desc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.GetValue(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v", err)
	}
}

// remoteRig: a LUS process (server) and a provider process (client side).
type remoteRig struct {
	lus       *registry.LookupService
	lusServer *srpc.Server
	registrar *RegistrarClient
}

func newRemoteRig(t *testing.T) *remoteRig {
	t.Helper()
	lus := registry.New("remote-lus", clockwork.NewFake(epoch))
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ServeRegistrar(server, lus)
	rc, err := NewRegistrarClient(server.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rc.Close()
		server.Close()
		lus.Close()
	})
	return &remoteRig{lus: lus, lusServer: server, registrar: rc}
}

func TestRegistrarClientIdentity(t *testing.T) {
	r := newRemoteRig(t)
	if r.registrar.ID() != r.lus.ID() || r.registrar.Name() != "remote-lus" {
		t.Fatal("identity mismatch")
	}
}

func TestRemoteRegisterLookupRead(t *testing.T) {
	r := newRemoteRig(t)
	// Provider process: ESP exported over its own srpc server.
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	esp := newESP("Jade-Sensor", 22)
	defer esp.Close()
	desc := ServeAccessor(provServer, "Jade-Sensor", esp)

	reg, err := r.registrar.Register(registry.ServiceItem{
		Service:    desc,
		Types:      []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name("Jade-Sensor")},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if reg.ServiceID.IsZero() {
		t.Fatal("no service id assigned")
	}

	// Consumer: remote lookup materializes an accessor stub.
	items := r.registrar.Lookup(registry.ByName("Jade-Sensor", sensor.AccessorType), 0)
	if len(items) != 1 {
		t.Fatalf("Lookup = %d items", len(items))
	}
	acc, ok := items[0].Service.(sensor.DataAccessor)
	if !ok {
		t.Fatalf("proxy = %T", items[0].Service)
	}
	reading, err := acc.GetValue()
	if err != nil || reading.Value != 22 {
		t.Fatalf("remote read = %+v, %v", reading, err)
	}

	// Local lookups in the LUS process can also reach the sensor.
	item, err := r.lus.LookupOne(registry.ByName("Jade-Sensor"))
	if err != nil {
		t.Fatal(err)
	}
	held, ok := item.Service.(ProxyDesc)
	if !ok {
		t.Fatalf("local proxy = %T", item.Service)
	}
	localAcc, err := NewAccessorClient(held, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer localAcc.Close()
	if v, err := localAcc.GetValue(); err != nil || v.Value != 22 {
		t.Fatalf("holder read = %+v, %v", v, err)
	}
}

func TestRemoteLeaseRenewAndCancel(t *testing.T) {
	r := newRemoteRig(t)
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	esp := newESP("s", 1)
	defer esp.Close()
	desc := ServeAccessor(provServer, "s", esp)
	reg, err := r.registrar.Register(registry.ServiceItem{
		Service: desc, Types: []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name("s")},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Lease.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := reg.Lease.Cancel(); err != nil {
		t.Fatal(err)
	}
	if r.lus.Len() != 0 {
		t.Fatal("cancel did not deregister")
	}
	if err := reg.Lease.Renew(time.Minute); err == nil {
		t.Fatal("renew after cancel accepted")
	}
}

func TestRemoteDeregisterAndModify(t *testing.T) {
	r := newRemoteRig(t)
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	esp := newESP("s", 1)
	defer esp.Close()
	desc := ServeAccessor(provServer, "s", esp)
	reg, _ := r.registrar.Register(registry.ServiceItem{
		Service: desc, Types: []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name("s")},
	}, time.Minute)

	if err := r.registrar.ModifyAttributes(reg.ServiceID,
		attr.Set{attr.Name("s"), attr.Comment("updated")}); err != nil {
		t.Fatal(err)
	}
	item, _ := r.registrar.LookupOne(registry.ByName("s"))
	if _, ok := item.Attributes.Find(attr.TypeComment); !ok {
		t.Fatal("modify did not propagate")
	}
	if err := r.registrar.Deregister(reg.ServiceID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.registrar.LookupOne(registry.ByName("s")); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// Remote lookups encode items that share the lookup service's attribute
// sets while writers swap those sets out: run under -race, any write into
// a stored item shows up as a data race with the reply encoder.
func TestRegistrarLookupRacesWrites(t *testing.T) {
	r := newRemoteRig(t)
	const items, rounds = 8, 200
	regs := make([]registry.Registration, items)
	item := func(i, round int) registry.ServiceItem {
		return registry.ServiceItem{
			ID:      regs[i].ServiceID,
			Service: ProxyDesc{Kind: AccessorKind, Locator: "127.0.0.1:1", Service: fmt.Sprint("s", i)},
			Types:   []string{sensor.AccessorType},
			Attributes: attr.Set{
				attr.Name(fmt.Sprint("s", i)),
				attr.Location("B1", fmt.Sprint(round%2), "310"),
			},
		}
	}
	for i := range regs {
		var err error
		if regs[i], err = r.lus.Register(item(i, 0), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	tmpl := registry.Template{Types: []string{sensor.AccessorType}, Attributes: attr.Set{attr.New(attr.TypeLocation, "building", "B1")}}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				for _, it := range r.registrar.Lookup(tmpl, 0) {
					if len(it.Attributes) != 2 {
						t.Errorf("lookup returned a torn item: %v", it.Attributes)
						return
					}
				}
			}
		}()
	}
	readers := make(chan struct{})
	go func() { wg.Wait(); close(readers) }()
writes:
	for n := 1; ; n++ { // write until every reader is through
		select {
		case <-readers:
			break writes
		default:
		}
		i := n % items
		var err error
		if n/items%2 == 0 { // each item alternates between the two writes
			err = r.lus.ModifyAttributes(regs[i].ServiceID, item(i, n).Attributes)
		} else {
			_, err = r.lus.Register(item(i, n), time.Hour)
		}
		if err != nil {
			t.Error(err)
			<-readers
			break
		}
	}
	if got := r.registrar.Lookup(tmpl, 0); len(got) != items {
		t.Fatalf("lookup found %d items, want %d", len(got), items)
	}
}

func TestRemoteRegisterRequiresProxy(t *testing.T) {
	r := newRemoteRig(t)
	_, err := r.registrar.Register(registry.ServiceItem{
		Service: 42, Types: []string{"X"},
	}, time.Minute)
	if err == nil {
		t.Fatal("proxyless remote registration accepted")
	}
}

func TestRemoteRegistrarWithDiscoveryBus(t *testing.T) {
	// A RegistrarClient is a registry.Registrar: it can flow through the
	// discovery bus and the whole sensor stack on the consumer side.
	r := newRemoteRig(t)
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	esp := newESP("Coral-Sensor", 26)
	defer esp.Close()
	desc := ServeAccessor(provServer, "Coral-Sensor", esp)
	r.registrar.Register(registry.ServiceItem{
		Service: desc, Types: []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name("Coral-Sensor"), attr.ServiceType(sensor.CategoryElementary)},
	}, time.Minute)

	bus := discovery.NewBus()
	defer bus.Announce(r.registrar)()
	mgr := discovery.NewManager(bus)
	defer mgr.Terminate()
	facade := sensor.NewFacade("f", clockwork.Real(), mgr)
	reading, err := facade.Network().GetValue("Coral-Sensor")
	if err != nil || reading.Value != 26 {
		t.Fatalf("cross-process facade read = %+v, %v", reading, err)
	}
}

func TestRemoteLeaseExpiryDeregisters(t *testing.T) {
	// Build the LUS on a real clock with short leases to show crash
	// semantics over the wire.
	lus := registry.New("lus", clockwork.Real(),
		registry.WithLeasePolicy(lease.Policy{Max: 50 * time.Millisecond, Min: time.Millisecond}))
	defer lus.Close()
	server := srpc.NewServer()
	server.Listen("127.0.0.1:0")
	defer server.Close()
	ServeRegistrar(server, lus)
	rc, err := NewRegistrarClient(server.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	esp := newESP("s", 1)
	defer esp.Close()
	desc := ServeAccessor(provServer, "s", esp)
	if _, err := rc.Register(registry.ServiceItem{
		Service: desc, Types: []string{"X"}, Attributes: attr.Set{attr.Name("s")},
	}, time.Hour); err != nil {
		t.Fatal(err)
	}
	// No renewals: the provider "crashed"; the registration must lapse.
	deadline := time.Now().Add(2 * time.Second)
	for lus.Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if lus.Len() != 0 {
		t.Fatal("crashed remote registration never expired")
	}
}

func TestServicerOverSRPC(t *testing.T) {
	// Provider process: an Adder exported as a remote servicer.
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	p := sorcer.NewProvider("Adder-1", "Adder")
	p.RegisterOp("add", func(ctx *sorcer.Context) error {
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
	desc := ServeServicer(provServer, "Adder-1", p)

	client, err := NewServicerClient(desc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	task := sorcer.NewTask("t", sorcer.Sig("Adder", "add"),
		sorcer.NewContextFrom("arg/a", 3.0, "arg/b", 4.0))
	res, err := client.Service(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status() != sorcer.Done {
		t.Fatalf("status = %v", res.Status())
	}
	v, err := res.Context().Float("result/value")
	if err != nil || v != 7 {
		t.Fatalf("remote result = %v, %v", v, err)
	}
}

// TestServicerCarriesIntegersAsTheJournalDoes: a Go int in a task
// context reaches a remote provider, and its result comes back, as
// int64, the kind the space's task journal restores it as, not as a
// JSON float64.
func TestServicerCarriesIntegersAsTheJournalDoes(t *testing.T) {
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	p := sorcer.NewProvider("Counter-1", "Counter")
	seen := make(chan any, 1)
	p.RegisterOp("inc", func(ctx *sorcer.Context) error {
		v, _ := ctx.Get("arg/n")
		seen <- v
		ctx.Put("result/n", 8)
		return nil
	})
	client, err := NewServicerClient(ServeServicer(provServer, "Counter-1", p), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Service(sorcer.NewTask("t", sorcer.Sig("Counter", "inc"), sorcer.NewContextFrom("arg/n", 7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := <-seen; v != int64(7) {
		t.Fatalf("provider saw arg/n = %#v, want int64(7)", v)
	}
	if v, _ := res.Context().Get("result/n"); v != int64(8) {
		t.Fatalf("requestor got result/n = %#v, want int64(8)", v)
	}
}

func TestServicerClientErrors(t *testing.T) {
	if _, err := NewServicerClient(ProxyDesc{Kind: "wrong"}, time.Second); err == nil {
		t.Fatal("wrong kind accepted")
	}
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	p := sorcer.NewProvider("P", "P")
	p.RegisterOp("fail", func(*sorcer.Context) error { return errors.New("op boom") })
	desc := ServeServicer(provServer, "P", p)
	client, _ := NewServicerClient(desc, time.Second)
	defer client.Close()

	// Jobs are rejected.
	if _, err := client.Service(sorcer.NewJob("j", sorcer.Strategy{}), nil); err == nil {
		t.Fatal("job accepted by remote servicer stub")
	}
	// Remote op failure propagates and fails the task.
	task := sorcer.NewTask("t", sorcer.Sig("P", "fail"), nil)
	if _, err := client.Service(task, nil); err == nil || !strings.Contains(err.Error(), "op boom") {
		t.Fatalf("err = %v", err)
	}
	if task.Status() != sorcer.Failed {
		t.Fatalf("status = %v", task.Status())
	}
}

func TestRemoteFMIThroughRegistrar(t *testing.T) {
	// Full cross-process FMI: provider registers its servicer proxy in a
	// remote LUS; a consumer's Exerter discovers and exerts it.
	r := newRemoteRig(t)
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	p := sorcer.NewProvider("Doubler", "Doubler")
	p.RegisterOp("run", func(ctx *sorcer.Context) error {
		x, err := ctx.Float("x")
		if err != nil {
			return err
		}
		ctx.Put("y", 2*x)
		return nil
	})
	desc := ServeServicer(provServer, "Doubler", p)
	if _, err := r.registrar.Register(registry.ServiceItem{
		Service:    desc,
		Types:      []string{"Doubler", sorcer.ServicerType},
		Attributes: attr.Set{attr.Name("Doubler")},
	}, time.Minute); err != nil {
		t.Fatal(err)
	}

	bus := discovery.NewBus()
	defer bus.Announce(r.registrar)()
	mgr := discovery.NewManager(bus)
	defer mgr.Terminate()
	exerter := sorcer.NewExerter(sorcer.NewAccessor(mgr))
	task := sorcer.NewTask("t", sorcer.Sig("Doubler", "run"), sorcer.NewContextFrom("x", 21.0))
	res, err := exerter.Exert(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	y, err := res.Context().Float("y")
	if err != nil || y != 42 {
		t.Fatalf("cross-process exertion = %v, %v", y, err)
	}
}

func TestAuthenticatedFederation(t *testing.T) {
	// Every server in the deployment requires a shared secret; clients
	// carrying it work end to end, clients without it are refused.
	const secret = "lab-secret"
	lus := registry.New("secure-lus", clockwork.NewFake(epoch))
	defer lus.Close()
	lusServer := srpc.NewServer()
	lusServer.SetToken(secret)
	lusServer.Listen("127.0.0.1:0")
	defer lusServer.Close()
	ServeRegistrar(lusServer, lus)

	// Unauthenticated registrar client fails at the identity fetch.
	if _, err := NewRegistrarClient(lusServer.Addr(), time.Second); err == nil {
		t.Fatal("unauthenticated registrar client connected")
	}

	// Authenticated path: the constructor needs the token before the
	// identity fetch, so dial raw first.
	raw, err := srpc.Dial(lusServer.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	raw.Close()
	// NewRegistrarClient has no token parameter; simulate the CLI flow:
	// build with a tokenized dial by registering a helper.
	rc, err := NewRegistrarClientWithToken(lusServer.Addr(), secret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Secure provider process.
	provServer := srpc.NewServer()
	provServer.SetToken(secret)
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	esp := newESP("Secure-Sensor", 19)
	defer esp.Close()
	desc := ServeAccessor(provServer, "Secure-Sensor", esp)
	if _, err := rc.Register(registry.ServiceItem{
		Service: desc, Types: []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name("Secure-Sensor")},
	}, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Authenticated lookup materializes tokenized stubs that can read.
	items := rc.Lookup(registry.ByName("Secure-Sensor"), 0)
	if len(items) != 1 {
		t.Fatalf("lookup = %d items", len(items))
	}
	acc := items[0].Service.(sensor.DataAccessor)
	r, err := acc.GetValue()
	if err != nil || r.Value != 19 {
		t.Fatalf("secure read = %+v, %v", r, err)
	}

	// A stub without the token is refused by the provider.
	bare, err := NewAccessorClient(desc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.GetValue(); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadProviderEndpointSurfacesCleanly(t *testing.T) {
	// A provider registers, then its process dies (socket closed) while
	// its registration is still live. Consumers must get a clean error,
	// not a hang.
	r := newRemoteRig(t)
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	esp := newESP("Doomed", 1)
	defer esp.Close()
	desc := ServeAccessor(provServer, "Doomed", esp)
	if _, err := r.registrar.Register(registry.ServiceItem{
		Service: desc, Types: []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name("Doomed")},
	}, time.Minute); err != nil {
		t.Fatal(err)
	}
	items := r.registrar.Lookup(registry.ByName("Doomed"), 0)
	if len(items) != 1 {
		t.Fatalf("lookup = %d", len(items))
	}
	acc := items[0].Service.(sensor.DataAccessor)

	// Kill the provider process.
	provServer.Close()

	start := time.Now()
	_, err := acc.GetValue()
	if err == nil {
		t.Fatal("read from dead endpoint succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("dead-endpoint read blocked %v", time.Since(start))
	}
	// Describe degrades to the name-only info rather than panicking.
	if info := acc.Describe(); info.Name != "Doomed" {
		t.Fatalf("Describe = %+v", info)
	}
	// GetReadings degrades to nil.
	if got := acc.GetReadings(5); got != nil {
		t.Fatalf("GetReadings = %v", got)
	}
}

// registerGhost registers an accessor whose export endpoint is gone before
// any consumer dials, returning the dead locator.
func registerGhost(t *testing.T, r *remoteRig, name string) string {
	t.Helper()
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	esp := newESP(name, 1)
	t.Cleanup(func() { esp.Close() })
	desc := ServeAccessor(provServer, name, esp)
	if _, err := r.registrar.Register(registry.ServiceItem{
		Service: desc, Types: []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name(name)},
	}, time.Minute); err != nil {
		t.Fatal(err)
	}
	provServer.Close()
	return desc.Locator
}

func TestLookupSkipsUnresolvableProxies(t *testing.T) {
	// Lookup skips resolving proxies altogether: an item whose export
	// endpoint is already gone at lookup time still comes back with its
	// stub (the registration outlives the process, the proxy does not),
	// and the stub's first call fails with the dial error naming the
	// locator.
	r := newRemoteRig(t)
	locator := registerGhost(t, r, "Ghost")

	items := r.registrar.Lookup(registry.ByName("Ghost"), 0)
	if len(items) != 1 {
		t.Fatalf("lookup = %d", len(items))
	}
	acc, ok := items[0].Service.(*AccessorClient)
	if !ok {
		t.Fatalf("proxy = %T, want a stub", items[0].Service)
	}
	defer acc.Close()
	if _, err := acc.GetValue(); err == nil || !strings.Contains(err.Error(), "dialing "+locator) {
		t.Fatalf("first call = %v, want the dial error naming %s", err, locator)
	}
	if info := acc.Describe(); info.Name != "Ghost" {
		t.Fatalf("Describe = %+v", info)
	}

	// The network manager surfaces the same error: no panic, no nil proxy.
	bus := discovery.NewBus()
	defer bus.Announce(r.registrar)()
	mgr := discovery.NewManager(bus)
	defer mgr.Terminate()
	facade := sensor.NewFacade("f", clockwork.Real(), mgr)
	if _, err := facade.Network().GetValue("Ghost"); err == nil || !strings.Contains(err.Error(), "dialing "+locator) {
		t.Fatalf("GetValue = %v, want the dial error naming %s", err, locator)
	}
}

func TestCompositeFailsAlikeForChildDeadBeforeOrAfterLookup(t *testing.T) {
	r := newRemoteRig(t)
	registerGhost(t, r, "Early") // dead before the lookup
	lateServer := srpc.NewServer()
	lateServer.Listen("127.0.0.1:0")
	lateESP := newESP("Late", 1)
	defer lateESP.Close()
	if _, err := r.registrar.Register(registry.ServiceItem{
		Service: ServeAccessor(lateServer, "Late", lateESP), Types: []string{sensor.AccessorType},
		Attributes: attr.Set{attr.Name("Late")},
	}, time.Minute); err != nil {
		t.Fatal(err)
	}
	child := func(name string) sensor.DataAccessor {
		item, err := r.registrar.LookupOne(registry.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		acc := item.Service.(*AccessorClient)
		t.Cleanup(acc.Close)
		return acc
	}
	early, late := child("Early"), child("Late")
	if _, err := late.GetValue(); err != nil {
		t.Fatal(err)
	}
	lateServer.Close() // dead after the lookup, and after a good read

	local := newESP("Local", 40)
	defer local.Close()
	for _, dead := range []sensor.DataAccessor{early, late} {
		strict := sensor.NewCSP("strict-" + dead.SensorName())
		for _, c := range []sensor.DataAccessor{local, dead} {
			if _, err := strict.AddChild(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := strict.GetValue(); err == nil || !strings.Contains(err.Error(), `component "`+dead.SensorName()+`"`) {
			t.Fatalf("%s: strict read = %v, want the failed component named", dead.SensorName(), err)
		}
	}
}

func TestRemoteExertionsRebindPastFailingProviders(t *testing.T) {
	// Every FindAll through a remote registrar mints fresh stubs. An
	// exertion that binds a failing provider or a dead endpoint first moves
	// on to the next equivalent provider, so every one is served by the
	// healthy provider.
	r := newRemoteRig(t)
	provServer := srpc.NewServer()
	provServer.Listen("127.0.0.1:0")
	defer provServer.Close()
	ghostServer := srpc.NewServer()
	ghostServer.Listen("127.0.0.1:0")

	var failed atomic.Int64
	register := func(server *srpc.Server, name string, op func(*sorcer.Context) error) {
		p := sorcer.NewProvider(name, "Breaky")
		p.RegisterOp("run", op)
		if _, err := r.registrar.Register(registry.ServiceItem{
			Service:    ServeServicer(server, name, p),
			Types:      []string{"Breaky", sorcer.ServicerType},
			Attributes: attr.Set{attr.Name(name)},
		}, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	register(provServer, "Breaky-ok", func(ctx *sorcer.Context) error { ctx.Put("by", "Breaky-ok"); return nil })
	register(provServer, "Breaky-failing", func(*sorcer.Context) error { failed.Add(1); return errors.New("op boom") })
	register(ghostServer, "Breaky-ghost", func(*sorcer.Context) error { return nil })
	ghostServer.Close() // its endpoint is gone before anyone binds to it

	bus := discovery.NewBus()
	defer bus.Announce(r.registrar)()
	mgr := discovery.NewManager(bus)
	defer mgr.Terminate()
	ex := sorcer.NewExerter(sorcer.NewAccessor(mgr))
	for i := 0; i < 200; i++ {
		res, err := ex.Exert(sorcer.NewTask("run", sorcer.Sig("Breaky", "run"), nil), nil)
		if err != nil {
			t.Fatalf("exert %d: %v", i, err)
		}
		if by, _ := res.Context().Get("by"); by != "Breaky-ok" {
			t.Fatalf("exert %d served by %v", i, by)
		}
	}
	// The rotating bind put the failing provider ahead of the healthy one
	// on some exertions; each of those moved past it.
	if failed.Load() == 0 {
		t.Fatal("the failing provider was never bound; the test routed nothing past it")
	}
}
