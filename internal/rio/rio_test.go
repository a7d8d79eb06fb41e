package rio

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/event"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

// testBean counts lifecycle calls.
type testBean struct {
	mu      sync.Mutex
	started int
	stopped int
	node    *Cybernode
	failAt  error // Start error to inject
}

func (b *testBean) Start(node *Cybernode) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failAt != nil {
		return b.failAt
	}
	b.started++
	b.node = node
	return nil
}

func (b *testBean) Stop() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopped++
	return nil
}

func (b *testBean) counts() (int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started, b.stopped
}

// beanTracker is a factory that remembers created beans.
type beanTracker struct {
	mu    sync.Mutex
	beans []*testBean
}

func (bt *beanTracker) factory(ServiceElement) (Bean, error) {
	b := &testBean{}
	bt.mu.Lock()
	bt.beans = append(bt.beans, b)
	bt.mu.Unlock()
	return b, nil
}

func (bt *beanTracker) count() int {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return len(bt.beans)
}

func newRig(t *testing.T) (*clockwork.Fake, *FactoryRegistry, *beanTracker, *Monitor) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	reg := NewFactoryRegistry()
	bt := &beanTracker{}
	reg.Register("sensorcer/composite", bt.factory)
	m := NewMonitor(fc, nil)
	t.Cleanup(m.Close)
	return fc, reg, bt, m
}

func element(name string) ServiceElement {
	return ServiceElement{Name: name, Type: "sensorcer/composite"}
}

func TestQoSAdmits(t *testing.T) {
	cap := Capability{CPUs: 4, MemoryMB: 2048, Arch: "amd64", Labels: map[string]string{"zone": "lab"}}
	cases := []struct {
		q    QoS
		util float64
		want bool
	}{
		{QoS{}, 0, true},
		{QoS{MinCPUs: 4}, 0, true},
		{QoS{MinCPUs: 5}, 0, false},
		{QoS{MinMemory: 2048}, 0, true},
		{QoS{MinMemory: 4096}, 0, false},
		{QoS{Arch: "amd64"}, 0, true},
		{QoS{Arch: "arm"}, 0, false},
		{QoS{Labels: map[string]string{"zone": "lab"}}, 0, true},
		{QoS{Labels: map[string]string{"zone": "field"}}, 0, false},
		{QoS{MaxUtilization: 0.5}, 0.4, true},
		{QoS{MaxUtilization: 0.5}, 0.5, false},
	}
	for i, c := range cases {
		if got := c.q.Admits(cap, c.util); got != c.want {
			t.Errorf("case %d %v: Admits = %v, want %v", i, c.q, got, c.want)
		}
	}
}

func TestCybernodeInstantiateAndTerminate(t *testing.T) {
	_, reg, bt, _ := newRig(t)
	node := NewCybernode("Cybernode-1", Capability{CPUs: 2}, reg)
	d, err := node.Instantiate(element("Composite-Service"))
	if err != nil {
		t.Fatal(err)
	}
	if bt.count() != 1 {
		t.Fatalf("beans created = %d", bt.count())
	}
	if got := node.Utilization(); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	if len(node.Services()) != 1 {
		t.Fatal("Services() missing instance")
	}
	if err := node.Terminate(d.ID); err != nil {
		t.Fatal(err)
	}
	if node.Utilization() != 0 {
		t.Fatal("utilization not released")
	}
	if _, stopped := bt.beans[0].counts(); stopped != 1 {
		t.Fatal("bean not stopped")
	}
	if err := node.Terminate(d.ID); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("double terminate err = %v", err)
	}
}

func TestCybernodeUnknownType(t *testing.T) {
	_, reg, _, _ := newRig(t)
	node := NewCybernode("n", Capability{}, reg)
	if _, err := node.Instantiate(ServiceElement{Name: "x", Type: "nope"}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v", err)
	}
}

func TestCybernodeKillStopsBeans(t *testing.T) {
	_, reg, bt, _ := newRig(t)
	node := NewCybernode("n", Capability{CPUs: 4}, reg)
	node.Instantiate(element("a"))
	node.Instantiate(element("b"))
	node.Kill()
	node.Kill() // idempotent
	if node.Alive() {
		t.Fatal("killed node reports alive")
	}
	for i, b := range bt.beans {
		if _, stopped := b.counts(); stopped != 1 {
			t.Fatalf("bean %d not stopped on kill", i)
		}
	}
	if _, err := node.Instantiate(element("c")); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("instantiate on dead node err = %v", err)
	}
}

func TestOnDeathAfterKillFiresImmediately(t *testing.T) {
	_, reg, _, _ := newRig(t)
	node := NewCybernode("n", Capability{}, reg)
	node.Kill()
	fired := false
	node.OnDeath(func(*Cybernode) { fired = true })
	if !fired {
		t.Fatal("OnDeath on dead node should fire immediately")
	}
}

func TestOpStringValidate(t *testing.T) {
	good := OpString{Name: "sensors", Elements: []ServiceElement{element("a")}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []OpString{
		{},
		{Name: "x"},
		{Name: "x", Elements: []ServiceElement{{Type: "t"}}},
		{Name: "x", Elements: []ServiceElement{{Name: "a"}}},
		{Name: "x", Elements: []ServiceElement{element("a"), element("a")}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDeployProvisionsPlannedInstances(t *testing.T) {
	_, reg, bt, m := newRig(t)
	node := NewCybernode("Cybernode-1", Capability{CPUs: 8}, reg)
	m.RegisterCybernode(node, time.Minute)
	elem := element("Composite-Service")
	elem.Planned = 3
	if err := m.Deploy(OpString{Name: "sensors", Elements: []ServiceElement{elem}}); err != nil {
		t.Fatal(err)
	}
	if bt.count() != 3 {
		t.Fatalf("provisioned %d instances, want 3", bt.count())
	}
	st, err := m.Status("sensors")
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Planned != 3 || st[0].Actual != 3 {
		t.Fatalf("status = %+v", st[0])
	}
}

func TestDeployDuplicateRejected(t *testing.T) {
	_, _, _, m := newRig(t)
	ops := OpString{Name: "x", Elements: []ServiceElement{element("a")}}
	m.Deploy(ops)
	if err := m.Deploy(ops); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
}

func TestDeployPendingUntilNodeArrives(t *testing.T) {
	_, reg, bt, m := newRig(t)
	if err := m.Deploy(OpString{Name: "s", Elements: []ServiceElement{element("a")}}); err != nil {
		t.Fatal(err)
	}
	if bt.count() != 0 {
		t.Fatal("provisioned without any node")
	}
	st, _ := m.Status("s")
	if st[0].Actual != 0 {
		t.Fatalf("actual = %d", st[0].Actual)
	}
	// A node arriving triggers reconciliation.
	node := NewCybernode("late", Capability{CPUs: 2}, reg)
	m.RegisterCybernode(node, time.Minute)
	if bt.count() != 1 {
		t.Fatal("pending element not provisioned on node arrival")
	}
}

func TestQoSPlacement(t *testing.T) {
	_, reg, _, m := newRig(t)
	small := NewCybernode("small", Capability{CPUs: 1, MemoryMB: 512}, reg)
	big := NewCybernode("big", Capability{CPUs: 8, MemoryMB: 8192}, reg)
	m.RegisterCybernode(small, time.Minute)
	m.RegisterCybernode(big, time.Minute)
	elem := element("heavy")
	elem.QoS = QoS{MinCPUs: 4, MinMemory: 4096}
	if err := m.Deploy(OpString{Name: "s", Elements: []ServiceElement{elem}}); err != nil {
		t.Fatal(err)
	}
	if len(big.Services()) != 1 || len(small.Services()) != 0 {
		t.Fatalf("placement wrong: big=%d small=%d", len(big.Services()), len(small.Services()))
	}
}

func TestFailoverOnKill(t *testing.T) {
	_, reg, _, m := newRig(t)
	n1 := NewCybernode("n1", Capability{CPUs: 4}, reg)
	n2 := NewCybernode("n2", Capability{CPUs: 4}, reg)
	m.RegisterCybernode(n1, time.Minute)
	m.RegisterCybernode(n2, time.Minute)
	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{element("svc")}})

	// Find which node got it and kill that node.
	victim, survivor := n1, n2
	if len(n2.Services()) == 1 {
		victim, survivor = n2, n1
	}
	victim.Kill()
	if len(survivor.Services()) != 1 {
		t.Fatal("instance not re-provisioned onto survivor")
	}
	st, _ := m.Status("s")
	if st[0].Actual != 1 {
		t.Fatalf("actual = %d after failover", st[0].Actual)
	}
}

func TestFailoverOnLeaseExpiry(t *testing.T) {
	fc, reg, _, m := newRig(t)
	n1 := NewCybernode("n1", Capability{CPUs: 4}, reg)
	n2 := NewCybernode("n2", Capability{CPUs: 4}, reg)
	lse1, _ := m.RegisterCybernode(n1, time.Minute)
	reg2lease, _ := m.RegisterCybernode(n2, time.Minute)
	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{element("svc")}})

	victim, survivor := n1, n2
	victimLease, survivorLease := &lse1, &reg2lease
	if len(n2.Services()) == 1 {
		victim, survivor = n2, n1
		victimLease, survivorLease = &reg2lease, &lse1
	}
	_ = victim
	// Keep the survivor's lease alive, let the victim's lapse silently.
	fc.Advance(45 * time.Second)
	survivorLease.Renew(time.Minute)
	fc.Advance(30 * time.Second)
	survivorLease.Renew(time.Minute)
	m.Sweep()
	_ = victimLease
	if len(survivor.Services()) != 1 {
		t.Fatal("silent node death did not trigger failover")
	}
}

func TestFailoverEmitsEvents(t *testing.T) {
	_, reg, _, m := newRig(t)
	n1 := NewCybernode("n1", Capability{CPUs: 4}, reg)
	n2 := NewCybernode("n2", Capability{CPUs: 4}, reg)
	m.RegisterCybernode(n1, time.Minute)
	m.RegisterCybernode(n2, time.Minute)

	var mu sync.Mutex
	kinds := map[uint64]int{}
	m.Events().Register(event.AnyEvent, eventCollector(func(kind uint64) {
		mu.Lock()
		kinds[kind]++
		mu.Unlock()
	}), time.Hour)

	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{element("svc")}})
	victim := n1
	if len(n2.Services()) == 1 {
		victim = n2
	}
	victim.Kill()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := kinds[EventProvisioned] >= 2 && kinds[EventNodeLost] >= 1 && kinds[EventRelocated] >= 1
		mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("event kinds = %v", kinds)
}

func TestUndeployTerminatesInstances(t *testing.T) {
	_, reg, bt, m := newRig(t)
	node := NewCybernode("n", Capability{CPUs: 4}, reg)
	m.RegisterCybernode(node, time.Minute)
	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{element("svc")}})
	if err := m.Undeploy("s"); err != nil {
		t.Fatal(err)
	}
	if _, stopped := bt.beans[0].counts(); stopped != 1 {
		t.Fatal("instance not terminated on undeploy")
	}
	if err := m.Undeploy("s"); !errors.Is(err, ErrUnknownOpString) {
		t.Fatalf("double undeploy err = %v", err)
	}
	if _, err := m.Status("s"); !errors.Is(err, ErrUnknownOpString) {
		t.Fatalf("status after undeploy err = %v", err)
	}
}

func TestRegisterDeadNodeRejected(t *testing.T) {
	_, reg, _, m := newRig(t)
	node := NewCybernode("n", Capability{}, reg)
	node.Kill()
	if _, err := m.RegisterCybernode(node, time.Minute); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("err = %v", err)
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	reg := NewFactoryRegistry()
	reg.Register("t", func(ServiceElement) (Bean, error) { return &testBean{}, nil })
	idle := NewCybernode("idle", Capability{CPUs: 4}, reg)
	busy := NewCybernode("busy", Capability{CPUs: 4}, reg)
	busy.Instantiate(ServiceElement{Name: "x", Type: "t"})
	got := LeastLoaded{}.Select([]*Cybernode{busy, idle}, ServiceElement{})
	if got != idle {
		t.Fatalf("LeastLoaded picked %s", got.Name())
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	reg := NewFactoryRegistry()
	a := NewCybernode("a", Capability{}, reg)
	b := NewCybernode("b", Capability{}, reg)
	rr := &RoundRobin{}
	seq := []*Cybernode{
		rr.Select([]*Cybernode{a, b}, ServiceElement{}),
		rr.Select([]*Cybernode{a, b}, ServiceElement{}),
		rr.Select([]*Cybernode{a, b}, ServiceElement{}),
	}
	if seq[0] != a || seq[1] != b || seq[2] != a {
		t.Fatalf("round robin order: %s %s %s", seq[0].Name(), seq[1].Name(), seq[2].Name())
	}
	if rr.Select(nil, ServiceElement{}) != nil {
		t.Fatal("empty candidates should yield nil")
	}
}

func TestBestFitPolicy(t *testing.T) {
	reg := NewFactoryRegistry()
	small := NewCybernode("small", Capability{CPUs: 2, MemoryMB: 1024}, reg)
	big := NewCybernode("big", Capability{CPUs: 16, MemoryMB: 32768}, reg)
	elem := ServiceElement{QoS: QoS{MinCPUs: 2, MinMemory: 1024}}
	if got := (BestFit{}).Select([]*Cybernode{big, small}, elem); got != small {
		t.Fatalf("BestFit picked %s, want small", got.Name())
	}
}

func TestLoadSpreadsAcrossNodes(t *testing.T) {
	_, reg, _, m := newRig(t)
	n1 := NewCybernode("n1", Capability{CPUs: 8}, reg)
	n2 := NewCybernode("n2", Capability{CPUs: 8}, reg)
	m.RegisterCybernode(n1, time.Minute)
	m.RegisterCybernode(n2, time.Minute)
	elem := element("svc")
	elem.Planned = 6
	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{elem}})
	if len(n1.Services()) != 3 || len(n2.Services()) != 3 {
		t.Fatalf("least-loaded spread: n1=%d n2=%d", len(n1.Services()), len(n2.Services()))
	}
}

func TestCapabilityCloneIndependence(t *testing.T) {
	c := Capability{CPUs: 1, Labels: map[string]string{"a": "b"}}
	cl := c.Clone()
	cl.Labels["a"] = "x"
	if c.Labels["a"] != "b" {
		t.Fatal("Clone shares labels")
	}
}

// Property: for any mix of node capacities and planned counts that fits,
// every planned instance lands somewhere and node capacity is respected by
// the monitor's accounting (utilization <= 1 given enough room).
func TestPropertyPlannedAlwaysPlacedWhenCapacityExists(t *testing.T) {
	f := func(nNodes, planned uint8) bool {
		nodes := int(nNodes%4) + 1
		plan := int(planned%8) + 1
		fc := clockwork.NewFake(epoch)
		reg := NewFactoryRegistry()
		reg.Register("t", func(ServiceElement) (Bean, error) { return &testBean{}, nil })
		m := NewMonitor(fc, nil)
		defer m.Close()
		for i := 0; i < nodes; i++ {
			m.RegisterCybernode(NewCybernode(fmt.Sprintf("n%d", i), Capability{CPUs: 8}, reg), time.Minute)
		}
		elem := ServiceElement{Name: "e", Type: "t", Planned: plan}
		if err := m.Deploy(OpString{Name: "s", Elements: []ServiceElement{elem}}); err != nil {
			return false
		}
		st, err := m.Status("s")
		if err != nil {
			return false
		}
		return st[0].Actual == plan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// eventCollector adapts a func(kind) to event.Listener.
type eventCollector func(kind uint64)

func (c eventCollector) Notify(ev event.RemoteEvent) error { c(ev.EventID); return nil }

func TestSetPlannedScalesUpAndDown(t *testing.T) {
	_, reg, bt, m := newRig(t)
	node := NewCybernode("n", Capability{CPUs: 16}, reg)
	m.RegisterCybernode(node, time.Minute)
	elem := element("svc")
	elem.Planned = 2
	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{elem}})
	if bt.count() != 2 {
		t.Fatalf("initial instances = %d", bt.count())
	}
	// Scale up.
	if err := m.SetPlanned("s", "svc", 5); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status("s")
	if st[0].Planned != 5 || st[0].Actual != 5 {
		t.Fatalf("after scale-up: %+v", st[0])
	}
	// Scale down.
	if err := m.SetPlanned("s", "svc", 1); err != nil {
		t.Fatal(err)
	}
	st, _ = m.Status("s")
	if st[0].Planned != 1 || st[0].Actual != 1 {
		t.Fatalf("after scale-down: %+v", st[0])
	}
	stopped := 0
	for _, b := range bt.beans {
		if _, s := b.counts(); s > 0 {
			stopped++
		}
	}
	if stopped != 4 {
		t.Fatalf("stopped %d beans, want 4", stopped)
	}
	// Node capacity released.
	if got := node.Utilization(); got != 1.0/16 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestSetPlannedValidation(t *testing.T) {
	_, reg, _, m := newRig(t)
	m.RegisterCybernode(NewCybernode("n", Capability{CPUs: 4}, reg), time.Minute)
	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{element("svc")}})
	if err := m.SetPlanned("ghost", "svc", 2); !errors.Is(err, ErrUnknownOpString) {
		t.Fatalf("err = %v", err)
	}
	if err := m.SetPlanned("s", "ghost", 2); err == nil {
		t.Fatal("unknown element accepted")
	}
	if err := m.SetPlanned("s", "svc", -1); err == nil {
		t.Fatal("negative planned accepted")
	}
	// Scale to zero: element fully retired but redeployable.
	if err := m.SetPlanned("s", "svc", 0); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status("s")
	if st[0].Actual != 0 {
		t.Fatalf("actual = %d after scale-to-zero", st[0].Actual)
	}
}

func TestScaledElementFailoverKeepsCount(t *testing.T) {
	_, reg, _, m := newRig(t)
	n1 := NewCybernode("n1", Capability{CPUs: 8}, reg)
	n2 := NewCybernode("n2", Capability{CPUs: 8}, reg)
	m.RegisterCybernode(n1, time.Minute)
	m.RegisterCybernode(n2, time.Minute)
	elem := element("svc")
	elem.Planned = 4
	m.Deploy(OpString{Name: "s", Elements: []ServiceElement{elem}})
	n1.Kill()
	st, _ := m.Status("s")
	if st[0].Actual != 4 {
		t.Fatalf("actual = %d after node loss, want 4", st[0].Actual)
	}
	if len(n2.Services()) != 4 {
		t.Fatalf("survivor hosts %d", len(n2.Services()))
	}
}

// TestKilledNodesLeaveNoLeaseIndex: a kill cancels the node's lease, and
// the lease's end removes the node everywhere the monitor tracks it,
// lease index included.
func TestKilledNodesLeaveNoLeaseIndex(t *testing.T) {
	_, reg, _, m := newRig(t)
	for i := 0; i < 100; i++ {
		n := NewCybernode(fmt.Sprintf("n%d", i), Capability{CPUs: 1}, reg)
		if _, err := m.RegisterCybernode(n, time.Minute); err != nil {
			t.Fatal(err)
		}
		n.Kill()
	}
	if nodes := m.Nodes(); len(nodes) != 0 {
		t.Fatalf("%d killed nodes still listed", len(nodes))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.byLease); n != 0 {
		t.Fatalf("lease index holds %d killed nodes", n)
	}
}
