package discovery

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func newLUS(name string) *registry.LookupService {
	return registry.New(name, clockwork.NewFake(epoch))
}

func TestBusAnnounceThenWatch(t *testing.T) {
	bus := NewBus()
	lus := newLUS("lus-1")
	defer lus.Close()
	cancel := bus.Announce(lus)
	defer cancel()

	m := NewManager(bus)
	defer m.Terminate()
	regs := m.Registrars()
	if len(regs) != 1 || regs[0].ID() != lus.ID() {
		t.Fatalf("Registrars = %v", regs)
	}
}

func TestBusWatchThenAnnounce(t *testing.T) {
	bus := NewBus()
	m := NewManager(bus)
	defer m.Terminate()

	found := make(chan registry.Registrar, 1)
	m.OnDiscovered(func(r registry.Registrar) { found <- r })

	lus := newLUS("lus-1")
	defer lus.Close()
	cancel := bus.Announce(lus)
	defer cancel()

	select {
	case r := <-found:
		if r.ID() != lus.ID() {
			t.Fatal("wrong registrar discovered")
		}
	case <-time.After(time.Second):
		t.Fatal("discovery callback never fired")
	}
}

func TestBusGroupIsolation(t *testing.T) {
	bus := NewBus()
	lusA := newLUS("a")
	defer lusA.Close()
	lusB := newLUS("b")
	defer lusB.Close()
	defer bus.Announce(lusA, "farm")()
	defer bus.Announce(lusB, "lab")()

	m := NewManager(bus, "farm")
	defer m.Terminate()
	regs := m.Registrars()
	if len(regs) != 1 || regs[0].ID() != lusA.ID() {
		t.Fatalf("group filter failed: %v", regs)
	}
}

func TestBusWildcardGroups(t *testing.T) {
	bus := NewBus()
	lus := newLUS("a")
	defer lus.Close()
	defer bus.Announce(lus, "private")()

	m := NewManager(bus, AllGroups)
	defer m.Terminate()
	if len(m.Registrars()) != 1 {
		t.Fatal("wildcard manager missed announcement")
	}
	if got := bus.Registrars(AllGroups); len(got) != 1 {
		t.Fatalf("bus.Registrars(*) = %d", len(got))
	}
}

func TestBusDiscarded(t *testing.T) {
	bus := NewBus()
	lus := newLUS("a")
	defer lus.Close()
	cancel := bus.Announce(lus)

	m := NewManager(bus)
	defer m.Terminate()
	gone := make(chan registry.Registrar, 1)
	m.OnDiscarded(func(r registry.Registrar) { gone <- r })
	cancel()
	cancel() // idempotent
	select {
	case r := <-gone:
		if r.ID() != lus.ID() {
			t.Fatal("wrong registrar discarded")
		}
	case <-time.After(time.Second):
		t.Fatal("discard callback never fired")
	}
	if len(m.Registrars()) != 0 {
		t.Fatal("registrar still tracked after discard")
	}
}

func TestManagerDiscardManual(t *testing.T) {
	bus := NewBus()
	lus := newLUS("a")
	defer lus.Close()
	defer bus.Announce(lus)()
	m := NewManager(bus)
	defer m.Terminate()
	m.Discard(lus)
	if len(m.Registrars()) != 0 {
		t.Fatal("manual discard failed")
	}
}

func TestManagerTerminateStopsCallbacks(t *testing.T) {
	bus := NewBus()
	m := NewManager(bus)
	var mu sync.Mutex
	count := 0
	m.OnDiscovered(func(registry.Registrar) { mu.Lock(); count++; mu.Unlock() })
	m.Terminate()
	m.Terminate() // idempotent
	lus := newLUS("late")
	defer lus.Close()
	defer bus.Announce(lus)()
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatal("callback fired after Terminate")
	}
}

func TestJoinRegistersEverywhere(t *testing.T) {
	bus := NewBus()
	lus1 := newLUS("one")
	defer lus1.Close()
	lus2 := newLUS("two")
	defer lus2.Close()
	defer bus.Announce(lus1)()
	defer bus.Announce(lus2)()

	m := NewManager(bus)
	defer m.Terminate()
	item := registry.ServiceItem{
		Service:    "probe",
		Types:      []string{"SensorDataAccessor"},
		Attributes: attr.Set{attr.Name("Neem-Sensor")},
	}
	j := NewJoin(clockwork.Real(), m, item)
	defer j.Terminate()

	for _, lus := range []*registry.LookupService{lus1, lus2} {
		it, err := lus.LookupOne(registry.ByName("Neem-Sensor"))
		if err != nil {
			t.Fatalf("%s: %v", lus.Name(), err)
		}
		if it.ID != j.ServiceID() {
			t.Fatal("item registered under different IDs")
		}
	}
}

func TestJoinRegistersOnLateRegistrar(t *testing.T) {
	bus := NewBus()
	m := NewManager(bus)
	defer m.Terminate()
	item := registry.ServiceItem{Service: "p", Types: []string{"X"}, Attributes: attr.Set{attr.Name("S")}}
	j := NewJoin(clockwork.Real(), m, item)
	defer j.Terminate()

	lus := newLUS("late")
	defer lus.Close()
	defer bus.Announce(lus)()
	if n := lus.Len(); n != 1 {
		t.Fatalf("late registrar holds %d registrations, want 1", n)
	}
	if _, err := lus.LookupOne(registry.ByName("S")); err != nil {
		t.Fatal("join did not register on late registrar")
	}
}

func TestJoinTerminateDeregisters(t *testing.T) {
	bus := NewBus()
	lus := newLUS("one")
	defer lus.Close()
	defer bus.Announce(lus)()
	m := NewManager(bus)
	defer m.Terminate()
	j := NewJoin(clockwork.Real(), m, registry.ServiceItem{
		Service: "p", Types: []string{"X"}, Attributes: attr.Set{attr.Name("S")},
	})
	j.Terminate()
	j.Terminate() // idempotent
	if lus.Len() != 0 {
		t.Fatal("item survived Join.Terminate")
	}
}

// heldRegistrar holds Register until released, so a test can run
// Join.Terminate while a registration is in flight.
type heldRegistrar struct {
	*registry.LookupService
	entered, release chan struct{}
}

func (h *heldRegistrar) Register(item registry.ServiceItem, d time.Duration) (registry.Registration, error) {
	close(h.entered)
	<-h.release
	return h.LookupService.Register(item, d)
}

// TestJoinTerminateDuringRegistration: a registration that lands after
// Terminate has run is cancelled on arrival, and the cancel alone removes
// it from the lookup service.
func TestJoinTerminateDuringRegistration(t *testing.T) {
	bus := NewBus()
	lus := newLUS("one")
	defer lus.Close()
	stub := &heldRegistrar{LookupService: lus, entered: make(chan struct{}), release: make(chan struct{})}
	m := NewManager(bus)
	defer m.Terminate()
	j := NewJoin(clockwork.Real(), m, registry.ServiceItem{
		Service: "p", Types: []string{"X"}, Attributes: attr.Set{attr.Name("S")},
	})
	announced := make(chan func())
	go func() { announced <- bus.Announce(stub) }()
	<-stub.entered
	j.Terminate()
	close(stub.release)
	defer (<-announced)()
	if n := lus.Len(); n != 0 {
		t.Fatalf("lookup service holds %d registrations after Terminate", n)
	}
	if _, err := lus.LookupOne(registry.ByName("S")); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("terminated item still looked up: %v", err)
	}
	j.mu.Lock()
	n := len(j.leases)
	j.mu.Unlock()
	if n != 0 {
		t.Fatalf("join holds %d registration leases after Terminate", n)
	}
}

func TestJoinKeepsLeaseAlive(t *testing.T) {
	// Real clock, short leases: the join's renewal manager must keep the
	// registration alive across several lease terms.
	clock := clockwork.Real()
	lus := registry.New("one", clock, registry.WithLeasePolicy(leasePolicy(40*time.Millisecond)))
	defer lus.Close()
	bus := NewBus()
	defer bus.Announce(lus)()
	m := NewManager(bus)
	defer m.Terminate()
	j := NewJoin(clock, m, registry.ServiceItem{
		Service: "p", Types: []string{"X"}, Attributes: attr.Set{attr.Name("S")},
	})
	defer j.Terminate()

	time.Sleep(250 * time.Millisecond)
	if _, err := lus.LookupOne(registry.ByName("S")); err != nil {
		t.Fatal("registration lapsed despite join renewal")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	f := func(name string, groups []string, locator string) bool {
		p := Packet{ID: ids.NewServiceID(), Name: name, Groups: groups, Locator: locator}
		b, err := EncodePacket(p)
		if err != nil {
			return false
		}
		back, err := DecodePacket(b)
		if err != nil {
			return false
		}
		if back.ID != p.ID || back.Name != p.Name || back.Locator != p.Locator {
			return false
		}
		return len(back.Groups) == len(p.Groups)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePacketRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		[]byte("not json"),
		[]byte(`{}`),
		[]byte(`{"magic":"WRONG","id":"267c67a0-dd67-4b95-beb0-e6763e117b03"}`),
		[]byte(`{"magic":"SNSRCR1","id":"00000000-0000-0000-0000-000000000000"}`),
	}
	for i, b := range cases {
		if _, err := DecodePacket(b); !errors.Is(err, ErrBadPacket) {
			t.Errorf("case %d: err = %v, want ErrBadPacket", i, err)
		}
	}
}

func TestUDPDiscoveryEndToEnd(t *testing.T) {
	bus := NewBus()
	lus := newLUS("udp-lus")
	defer lus.Close()
	resolver := func(locator string) (registry.Registrar, error) {
		if locator != "127.0.0.1:9000" {
			return nil, errors.New("unknown locator")
		}
		return lus, nil
	}
	listener, err := NewUDPListener("127.0.0.1:0", nil, bus, resolver, clockwork.Real(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	ann, err := NewAnnouncer(listener.Addr(), Packet{
		ID: lus.ID(), Name: lus.Name(), Groups: []string{PublicGroup}, Locator: "127.0.0.1:9000",
	}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Stop()

	m := NewManager(bus)
	defer m.Terminate()
	found := make(chan registry.Registrar, 1)
	m.OnDiscovered(func(r registry.Registrar) {
		select {
		case found <- r:
		default:
		}
	})
	select {
	case r := <-found:
		if r.ID() != lus.ID() {
			t.Fatal("wrong registrar over UDP")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("UDP discovery timed out")
	}
}

func TestUDPDiscoveryExpiry(t *testing.T) {
	bus := NewBus()
	lus := newLUS("udp-lus")
	defer lus.Close()
	resolver := func(string) (registry.Registrar, error) { return lus, nil }
	listener, err := NewUDPListener("127.0.0.1:0", nil, bus, resolver, clockwork.Real(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	ann, err := NewAnnouncer(listener.Addr(), Packet{
		ID: lus.ID(), Name: lus.Name(), Groups: []string{PublicGroup}, Locator: "x",
	}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(bus)
	defer m.Terminate()
	gone := make(chan registry.Registrar, 1)
	m.OnDiscarded(func(r registry.Registrar) {
		select {
		case gone <- r:
		default:
		}
	})

	// Wait until discovered, then stop announcing and expect expiry.
	deadline := time.Now().Add(3 * time.Second)
	for len(m.Registrars()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(m.Registrars()) == 0 {
		t.Fatal("never discovered")
	}
	ann.Stop()
	select {
	case <-gone:
	case <-time.After(3 * time.Second):
		t.Fatal("silent registrar never expired")
	}
}

func TestUDPDiscoveryGroupFilter(t *testing.T) {
	bus := NewBus()
	lus := newLUS("udp-lus")
	defer lus.Close()
	resolved := make(chan struct{}, 1)
	resolver := func(string) (registry.Registrar, error) {
		select {
		case resolved <- struct{}{}:
		default:
		}
		return lus, nil
	}
	listener, err := NewUDPListener("127.0.0.1:0", []string{"lab"}, bus, resolver, clockwork.Real(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	ann, err := NewAnnouncer(listener.Addr(), Packet{
		ID: lus.ID(), Name: "x", Groups: []string{"farm"}, Locator: "y",
	}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Stop()
	select {
	case <-resolved:
		t.Fatal("announcement for foreign group was resolved")
	case <-time.After(150 * time.Millisecond):
	}
}

// leasePolicy builds a registry lease policy with the given max.
func leasePolicy(max time.Duration) lease.Policy {
	return lease.Policy{Max: max, Min: time.Millisecond}
}
