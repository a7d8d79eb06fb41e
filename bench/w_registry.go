package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
	"sensorcer/internal/registry"
	"sensorcer/internal/remote"
	"sensorcer/internal/sensor"
	"sensorcer/internal/srpc"
)

// registry_churn: lookups beside registrations on the real `sensorcerd
// lus`. 300 operations a second over two remote.RegistrarClients
// against 1024 leased items whose proxy descriptors point at a live
// listener: 60 % find one service by name, 20 % browse a location for up
// to 8 services, 20 % are writes (register, renew, modify, deregister).
// Reads and writes share one layer, so a lookup win that costs
// registration shows; and every lookup pays the stub dial per returned
// item that RegistrarClient.Lookup makes.
const (
	registryRate  = 300
	registryItems = 1024
	// Static items are spread evenly over this many locations, so every
	// browse matches exactly registryItems/registryLocations items.
	registryLocations = 128
	registryBrowseMax = 8
	// churnMax bounds the extra items the write mix keeps registered.
	churnMax      = 64
	registryLease = 10 * time.Minute
)

// Registry operation classes.
const (
	classLookupOne = "lookup_one"
	classBrowse    = "browse"
	classRegister  = "register"
	classRenew     = "renew"
	classModify    = "modify"
	classDereg     = "deregister"
)

func staticName(i int) string { return fmt.Sprintf("svc-%04d", i) }

func locationOf(loc int) attr.Entry {
	return attr.Location(fmt.Sprintf("B%d", loc/16), fmt.Sprint(loc/4%4), fmt.Sprint(loc%4))
}

// staticItem is the i-th item of the seeded population.
func staticItem(i int, stub remote.ProxyDesc) registry.ServiceItem {
	return registry.ServiceItem{
		Service: stub,
		Types:   []string{sensor.AccessorType},
		Attributes: attr.Set{
			attr.Name(staticName(i)),
			attr.SensorType("temperature", "celsius"),
			attr.ServiceType(sensor.CategoryElementary),
			locationOf(i % registryLocations),
		},
	}
}

// churnItem is an item the write mix registers and removes. It has the
// static items' type, so it lengthens the same index walks, but a
// location no browse asks for, so browse counts stay exact.
func churnItem(n uint64, stub remote.ProxyDesc) registry.ServiceItem {
	return registry.ServiceItem{
		Service: stub,
		Types:   []string{sensor.AccessorType},
		Attributes: attr.Set{
			attr.Name(fmt.Sprintf("churn-%d", n)),
			attr.SensorType("temperature", "celsius"),
			attr.Location("Churn", "0", "0"),
			attr.Comment("registered"),
		},
	}
}

type registryChurn struct {
	sensorcerd string
	lus, stub  *child
	// proxies relay the registrar (first) and every stub endpoint of a
	// traced set-up.
	proxies []*countingProxy
	clients [connections]*remote.RegistrarClient
	ctl     *srpc.Client
	// descs are the stub node's endpoints; items are spread over them.
	descs []remote.ProxyDesc
	rec   classRecorder
	turn  atomic.Uint64

	// pool holds the churn items no operation is working on; taking one
	// gives the operation exclusive use of it.
	mu      sync.Mutex
	pool    []registry.Registration
	churned uint64

	tr *tracer
}

func (w *registryChurn) setup(sb *sandbox, _ *rand.Rand, trace bool) error {
	var err error
	w.lus, err = sb.spawn("sensorcerd-lus", w.sensorcerd,
		[]string{"lus", "-listen", "127.0.0.1:0", "-lease-max", "1h"}, nil)
	if err != nil {
		return err
	}
	if w.stub, err = spawnNode(sb, nodeSpec{Role: roleStub, Trace: trace}); err != nil {
		return err
	}
	lusAddr := w.lus.addr
	if trace {
		w.tr = &tracer{}
	}
	// via returns the address to reach addr by: itself, or in a traced
	// set-up a counting proxy in front of it.
	via := func(addr string) (string, error) {
		if !trace {
			return addr, nil
		}
		p, err := newCountingProxy(addr)
		if err != nil {
			return "", err
		}
		w.proxies = append(w.proxies, p)
		return p.addr(), nil
	}
	if lusAddr, err = via(lusAddr); err != nil {
		return err
	}
	for _, addr := range w.stub.addrs {
		if addr, err = via(addr); err != nil {
			return err
		}
		w.descs = append(w.descs, remote.ProxyDesc{Kind: remote.AccessorKind, Locator: addr, Service: svcStub})
	}
	for i := range w.clients {
		if w.clients[i], err = remote.NewRegistrarClient(lusAddr, 5*time.Second); err != nil {
			return err
		}
	}
	// Each connection registers its half of the population.
	errs := make(chan error, connections)
	for c := range w.clients {
		go func(c int) {
			for i := c; i < registryItems; i += connections {
				if _, err := w.clients[c].Register(staticItem(i, w.descs[i%len(w.descs)]), registryLease); err != nil {
					errs <- fmt.Errorf("registering %s: %w", staticName(i), err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for range w.clients {
		if err := <-errs; err != nil {
			return err
		}
	}
	for i := range w.clients {
		if err := w.lookupOne(w.clients[i], i); err != nil {
			return fmt.Errorf("first lookup on connection %d: %w", i, err)
		}
	}
	w.ctl, err = srpc.Dial(w.stub.addr, 5*time.Second)
	return err
}

// timed runs fn as one operation of the class: its service time and, in
// a traced run, its client span.
func (w *registryChurn) timed(class string, fn func() error) error {
	start := time.Now()
	err := fn()
	if err == nil {
		w.rec.add(class, start)
		if w.tr != nil {
			w.tr.add(span{Name: "registry." + class, Start: start.UnixNano(), End: time.Now().UnixNano()})
		}
	}
	return err
}

// closeStubs closes every stub a lookup materialised and reports how
// many of the items carried one.
func closeStubs(items []registry.ServiceItem) int {
	n := 0
	for _, it := range items {
		if acc, ok := it.Service.(*remote.AccessorClient); ok {
			acc.Close()
			n++
		}
	}
	return n
}

func (w *registryChurn) lookupOne(rc *remote.RegistrarClient, i int) error {
	name := staticName(i)
	var item registry.ServiceItem
	err := w.timed(classLookupOne, func() (err error) {
		item, err = rc.LookupOne(registry.ByName(name, sensor.AccessorType))
		return err
	})
	if err != nil {
		return fmt.Errorf("lookup of %s: %w", name, err)
	}
	if closeStubs([]registry.ServiceItem{item}) != 1 || attr.NameOf(item.Attributes) != name {
		return fmt.Errorf("lookup of %s returned %q without a live stub", name, attr.NameOf(item.Attributes))
	}
	return nil
}

func (w *registryChurn) browse(rc *remote.RegistrarClient, loc int) error {
	want := locationOf(loc)
	tmpl := registry.Template{Types: []string{sensor.AccessorType}, Attributes: attr.Set{want}}
	var items []registry.ServiceItem
	_ = w.timed(classBrowse, func() error {
		items = rc.Lookup(tmpl, registryBrowseMax)
		return nil
	})
	stubs := closeStubs(items)
	const expect = registryItems / registryLocations
	if len(items) != expect || stubs != expect {
		return fmt.Errorf("browse of %v returned %d items with %d stubs, want %d", want, len(items), stubs, expect)
	}
	for _, it := range items {
		if got, _ := it.Attributes.Find(attr.TypeLocation); !got.Equal(want) {
			return fmt.Errorf("browse of %v returned an item at %v", want, got)
		}
	}
	return nil
}

// findByID reports whether the item is registered, closing the stub the
// lookup dials.
func findByID(rc *remote.RegistrarClient, id ids.ServiceID) bool {
	items := rc.Lookup(registry.Template{ID: id}, 1)
	closeStubs(items)
	return len(items) == 1
}

// takeChurn removes an idle churn item from the pool.
func (w *registryChurn) takeChurn() (registry.Registration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pool) == 0 {
		return registry.Registration{}, false
	}
	reg := w.pool[len(w.pool)-1]
	w.pool = w.pool[:len(w.pool)-1]
	return reg, true
}

func (w *registryChurn) putChurn(reg registry.Registration) {
	w.mu.Lock()
	w.pool = append(w.pool, reg)
	w.mu.Unlock()
}

// write runs one of the four mutations. The mix is balanced by the pool:
// an empty pool turns any write into a register, a full one turns a
// register into a deregister, so the population stays within
// registryItems..registryItems+churnMax.
func (w *registryChurn) write(rc *remote.RegistrarClient, kind uint64) error {
	w.mu.Lock()
	size := len(w.pool)
	w.churned++
	serial := w.churned
	w.mu.Unlock()
	class := [...]string{classRegister, classRenew, classModify, classDereg}[kind%4]
	if class == classRegister && size >= churnMax {
		class = classDereg
	}
	reg, ok := registry.Registration{}, false
	if class != classRegister {
		if reg, ok = w.takeChurn(); !ok {
			class = classRegister
		}
	}
	switch class {
	case classRegister:
		err := w.timed(class, func() (err error) {
			reg, err = rc.Register(churnItem(serial, w.descs[serial%uint64(len(w.descs))]), registryLease)
			return err
		})
		if err != nil {
			return fmt.Errorf("register: %w", err)
		}
		if !findByID(rc, reg.ServiceID) {
			return fmt.Errorf("registered item %s not found by id", reg.ServiceID.Short())
		}
	case classRenew:
		if err := w.timed(class, func() error { return reg.Lease.Renew(registryLease) }); err != nil {
			return fmt.Errorf("renew: %w", err)
		}
	case classModify:
		attrs := churnItem(serial, w.descs[serial%uint64(len(w.descs))]).Attributes.Replace(attr.Comment(fmt.Sprintf("modified-%d", serial)))
		if err := w.timed(class, func() error { return rc.ModifyAttributes(reg.ServiceID, attrs) }); err != nil {
			return fmt.Errorf("modify: %w", err)
		}
	case classDereg:
		if err := w.timed(class, func() error { return rc.Deregister(reg.ServiceID) }); err != nil {
			return fmt.Errorf("deregister: %w", err)
		}
		if findByID(rc, reg.ServiceID) {
			return fmt.Errorf("deregistered item %s still found by id", reg.ServiceID.Short())
		}
		return nil
	}
	w.putChurn(reg)
	return nil
}

func (w *registryChurn) op(_ int, u uint64) error {
	rc := w.clients[w.turn.Add(1)%connections]
	pick, arg := u%100, u>>8
	switch {
	case pick < 60:
		return w.lookupOne(rc, int(arg%registryItems))
	case pick < 80:
		return w.browse(rc, int(arg%registryLocations))
	default:
		return w.write(rc, arg)
	}
}

// finish checks that the registry agrees with the driver's view of the
// churned population: within its bound, and every item still findable.
func (w *registryChurn) finish() error {
	w.mu.Lock()
	pool := w.pool
	w.mu.Unlock()
	if len(pool) > churnMax+capacityCallers {
		return fmt.Errorf("churn pool holds %d items, bound is %d", len(pool), churnMax)
	}
	for _, reg := range pool {
		if !findByID(w.clients[0], reg.ServiceID) {
			return fmt.Errorf("churn item %s vanished from the registry", reg.ServiceID.Short())
		}
	}
	return nil
}

func (w *registryChurn) sut() []*child                 { return []*child{w.lus, w.stub} }
func (w *registryChurn) node() *srpc.Client            { return w.ctl }
func (w *registryChurn) classes() map[string][]float64 { return w.rec.take() }
func (w *registryChurn) spans() []span                 { return w.tr.take() }

// wire reports the registrar bytes plus the stub-dial bytes, and the
// stub connections dialled.
func (w *registryChurn) wire() (bytes, stubConns int64) {
	for i, p := range w.proxies {
		bytes += p.bytes.Load()
		if i > 0 {
			stubConns += p.conns.Load()
		}
	}
	return bytes, stubConns
}

func (w *registryChurn) close() {
	for _, c := range w.clients {
		if c != nil {
			c.Close()
		}
	}
	if w.ctl != nil {
		w.ctl.Close()
	}
	for _, p := range w.proxies {
		p.close()
	}
	releaseAll(w.lus, w.stub)
}
