package sensor

import (
	"errors"
	"sensorcer/internal/attr"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/registry"
	"sensorcer/internal/rio"
)

// facadeRig assembles a full single-process SenSORCER deployment: one LUS,
// a discovery manager, four paper-named ESPs, a façade, two cybernodes and
// a provision monitor.
type facadeRig struct {
	bus       *discovery.Bus
	lus       *registry.LookupService
	mgr       *discovery.Manager
	facade    *Facade
	esps      []*ESP
	joins     []*discovery.Join
	monitor   *rio.Monitor
	nodes     []*rio.Cybernode
	factories *rio.FactoryRegistry
}

func newFacadeRig(t *testing.T, sensorValues map[string]float64) *facadeRig {
	t.Helper()
	r := &facadeRig{bus: discovery.NewBus(), factories: rio.NewFactoryRegistry()}
	r.lus = registry.New("persimmon.cs.ttu.edu:4160", clockwork.NewFake(epoch))
	cancel := r.bus.Announce(r.lus)
	r.mgr = discovery.NewManager(r.bus)

	for name, v := range sensorValues {
		e := replayESP(name, v)
		r.esps = append(r.esps, e)
		r.joins = append(r.joins, e.Publish(clockwork.Real(), r.mgr))
	}

	r.facade = NewFacade("SenSORCER Facade", clockwork.Real(), r.mgr)
	r.joins = append(r.joins, r.facade.Publish())

	r.monitor = rio.NewMonitor(clockwork.Real(), nil)
	p := NewProvisioner(r.monitor, r.factories, clockwork.Real(), r.mgr, r.facade.Network().FindAccessor)
	r.facade.Network().AttachProvisioner(p)
	for _, name := range []string{"Cybernode-1", "Cybernode-2"} {
		node := rio.NewCybernode(name, rio.Capability{CPUs: 4, MemoryMB: 4096}, r.factories)
		r.nodes = append(r.nodes, node)
		if _, err := r.monitor.RegisterCybernode(node, time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	t.Cleanup(func() {
		for _, j := range r.joins {
			j.Terminate()
		}
		for _, e := range r.esps {
			e.Close()
		}
		r.monitor.Close()
		r.mgr.Terminate()
		cancel()
		r.lus.Close()
	})
	return r
}

var paperSensors = map[string]float64{
	"Neem-Sensor":    20,
	"Jade-Sensor":    22,
	"Diamond-Sensor": 24,
	"Coral-Sensor":   26,
}

func TestFacadeListServices(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	entries := r.facade.ListServices()
	byName := map[string]ServiceEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	for name := range paperSensors {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("%s missing from service list", name)
		}
		if e.Category != CategoryElementary {
			t.Fatalf("%s category = %q", name, e.Category)
		}
	}
	if byName["SenSORCER Facade"].Category != CategoryFacade {
		t.Fatal("facade not listed")
	}
	sensors := r.facade.SensorEntries()
	if len(sensors) != 4 {
		t.Fatalf("SensorEntries = %d, want 4", len(sensors))
	}
}

func TestNetworkManagerGetValue(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	reading, err := r.facade.Network().GetValue("Jade-Sensor")
	if err != nil || reading.Value != 22 {
		t.Fatalf("GetValue = %v, %v", reading, err)
	}
	if _, err := r.facade.Network().GetValue("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

func TestComposeServicePublishesComposite(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	csp, err := nm.ComposeService("Composite-Service",
		[]string{"Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"}, "(a + b + c)/3")
	if err != nil {
		t.Fatal(err)
	}
	if got := csp.Expression(); got != "(a + b + c)/3" {
		t.Fatalf("expression = %q", got)
	}
	// Readable via the network by name.
	reading, err := nm.GetValue("Composite-Service")
	if err != nil || reading.Value != 22 {
		t.Fatalf("composite read = %v, %v", reading, err)
	}
	// And visible in the browser list as COMPOSITE.
	for _, e := range r.facade.ListServices() {
		if e.Name == "Composite-Service" && e.Category == CategoryComposite {
			return
		}
	}
	t.Fatal("composite not listed")
}

func TestComposeServiceValidation(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	if _, err := nm.ComposeService("", nil, ""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := nm.ComposeService("c", []string{"ghost"}, ""); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
	if _, err := nm.ComposeService("Neem-Sensor", nil, ""); err == nil {
		t.Fatal("name collision accepted")
	}
	if _, err := nm.ComposeService("c", []string{"Neem-Sensor"}, "(bad"); err == nil {
		t.Fatal("bad expression accepted")
	}
}

func TestCompositeManagementByName(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	nm.ComposeService("grp", []string{"Neem-Sensor"}, "")
	v, err := nm.AddToComposite("grp", "Coral-Sensor")
	if err != nil || v != "b" {
		t.Fatalf("AddToComposite = %q, %v", v, err)
	}
	if err := nm.SetExpression("grp", "(a + b)/2"); err != nil {
		t.Fatal(err)
	}
	kids, expr, err := nm.CompositeInfo("grp")
	if err != nil || len(kids) != 2 || expr != "(a + b)/2" {
		t.Fatalf("CompositeInfo = %v, %q, %v", kids, expr, err)
	}
	reading, err := nm.GetValue("grp")
	if err != nil || reading.Value != 23 {
		t.Fatalf("value = %v, %v", reading, err)
	}
	if err := nm.RemoveFromComposite("grp", "Neem-Sensor"); err != nil {
		t.Fatal(err)
	}
	// The old expression references the removed variable; reset to the
	// default average before reading again.
	if err := nm.SetExpression("grp", ""); err != nil {
		t.Fatal(err)
	}
	reading, err = nm.GetValue("grp")
	if err != nil || reading.Value != 26 {
		t.Fatalf("after removal = %v, %v", reading.Value, err)
	}
	// Management ops on elementary services are rejected.
	if _, err := nm.AddToComposite("Neem-Sensor", "Coral-Sensor"); !errors.Is(err, ErrNotComposite) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveService(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	nm.ComposeService("tmp", []string{"Neem-Sensor"}, "")
	if err := nm.RemoveService("tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.GetValue("tmp"); !errors.Is(err, ErrUnknownService) {
		t.Fatal("service still resolvable after removal")
	}
	if err := nm.RemoveService("Neem-Sensor"); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("err = %v", err)
	}
}

func TestProvisionComposite(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	// The paper's step 3-5: provision New-Composite with QoS, compose.
	nm.ComposeService("Composite-Service",
		[]string{"Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"}, "(a + b + c)/3")
	err := nm.ProvisionComposite("New-Composite",
		[]string{"Composite-Service", "Coral-Sensor"}, "(a + b)/2", QoSSpec{MinCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	reading, err := nm.GetValue("New-Composite")
	if err != nil {
		t.Fatal(err)
	}
	if reading.Value != 24 { // ((20+22+24)/3 + 26)/2
		t.Fatalf("provisioned composite = %v", reading.Value)
	}
	// It landed on exactly one cybernode.
	hosted := 0
	for _, n := range r.nodes {
		hosted += len(n.Services())
	}
	if hosted != 1 {
		t.Fatalf("hosted on %d nodes", hosted)
	}
	if err := r.monitor.Undeploy(opStringName("New-Composite")); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.GetValue("New-Composite"); !errors.Is(err, ErrUnknownService) {
		t.Fatal("provisioned composite survived unprovision")
	}
}

func TestProvisionedCompositeFailover(t *testing.T) {
	// §IV-C fault tolerance: kill the hosting cybernode; the service is
	// re-provisioned on the survivor and keeps answering by name.
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	if err := nm.ProvisionComposite("HA-Composite",
		[]string{"Neem-Sensor", "Coral-Sensor"}, "(a + b)/2", QoSSpec{}); err != nil {
		t.Fatal(err)
	}
	victim := r.nodes[0]
	if len(victim.Services()) == 0 {
		victim = r.nodes[1]
	}
	victim.Kill()

	reading, err := nm.GetValue("HA-Composite")
	if err != nil {
		t.Fatalf("service lost after node death: %v", err)
	}
	if reading.Value != 23 {
		t.Fatalf("failover value = %v", reading.Value)
	}
}

func TestProvisionWithUnsatisfiableQoSStaysPending(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	if err := nm.ProvisionComposite("picky",
		[]string{"Neem-Sensor"}, "", QoSSpec{MinCPUs: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.GetValue("picky"); err == nil {
		t.Fatal("unsatisfiable QoS still provisioned")
	}
	// A big-enough node arrives: pending element provisions.
	big := rio.NewCybernode("big", rio.Capability{CPUs: 128}, r.factories)
	if _, err := r.monitor.RegisterCybernode(big, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.GetValue("picky"); err != nil {
		t.Fatalf("pending composite never provisioned: %v", err)
	}
}

func TestProvisionerWithoutAttachment(t *testing.T) {
	mgr, _, _ := newSensorRig(t)
	nm := NewNetworkManager(clockwork.Real(), mgr)
	if err := nm.ProvisionComposite("x", nil, "", QoSSpec{}); err == nil {
		t.Fatal("provision without provisioner accepted")
	}
}

func TestComposeByTemplate(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	// All four are temperature sensors: dynamic grouping by SensorType.
	csp, n, err := nm.ComposeByTemplate("all-temps",
		attr.Set{attr.New(attr.TypeSensorType, "kind", "temperature")}, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(csp.Children()) != 4 {
		t.Fatalf("grouped %d sensors", n)
	}
	// Members are bound in name order: Coral, Diamond, Jade, Neem.
	kids := csp.Children()
	if kids[0].Name != "Coral-Sensor" || kids[3].Name != "Neem-Sensor" {
		t.Fatalf("ordering = %v", kids)
	}
	reading, err := nm.GetValue("all-temps")
	if err != nil || reading.Value != 23 { // (20+22+24+26)/4
		t.Fatalf("group value = %v, %v", reading.Value, err)
	}
	// No match -> error.
	if _, _, err := nm.ComposeByTemplate("none",
		attr.Set{attr.New(attr.TypeSensorType, "kind", "vibration")}, ""); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

func TestComposeByTemplateExcludesSelfName(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	// First group everything; the group itself is a COMPOSITE so a second
	// template over ELEMENTARY must not include it.
	if _, _, err := nm.ComposeByTemplate("g1",
		attr.Set{attr.ServiceType(CategoryElementary)}, ""); err != nil {
		t.Fatal(err)
	}
	_, n, err := nm.ComposeByTemplate("g2",
		attr.Set{attr.ServiceType(CategoryElementary)}, "")
	if err != nil || n != 4 {
		t.Fatalf("second grouping = %d, %v", n, err)
	}
}

func TestScaleComposite(t *testing.T) {
	r := newFacadeRig(t, paperSensors)
	nm := r.facade.Network()
	if err := nm.ProvisionComposite("scaled",
		[]string{"Neem-Sensor"}, "", QoSSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := nm.ScaleComposite("scaled", 3); err != nil {
		t.Fatal(err)
	}
	hosted := 0
	for _, n := range r.nodes {
		hosted += len(n.Services())
	}
	if hosted != 3 {
		t.Fatalf("hosted = %d after scale-up, want 3", hosted)
	}
	if err := nm.ScaleComposite("scaled", 1); err != nil {
		t.Fatal(err)
	}
	hosted = 0
	for _, n := range r.nodes {
		hosted += len(n.Services())
	}
	if hosted != 1 {
		t.Fatalf("hosted = %d after scale-down, want 1", hosted)
	}
	// Still answers by name.
	if _, err := nm.GetValue("scaled"); err != nil {
		t.Fatal(err)
	}
	if err := nm.ScaleComposite("ghost", 2); err == nil {
		t.Fatal("scaling unknown composite accepted")
	}
}
