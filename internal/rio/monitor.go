package rio

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/event"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
)

// Event kinds fired by the Monitor's event generator.
const (
	// EventProvisioned: an instance was started on a node.
	EventProvisioned uint64 = iota + 1
	// EventRelocated: an instance was re-provisioned after its node died.
	EventRelocated
	// EventPending: an element has fewer instances than planned and no
	// admissible node is available.
	EventPending
	// EventNodeLost: a cybernode left (lease expiry or kill).
	EventNodeLost
)

// ProvisionNotice is the payload of monitor events.
type ProvisionNotice struct {
	OpString string
	Element  string
	Node     string
	Detail   string
}

// ErrUnknownOpString is returned for operations on undeployed opstrings.
var ErrUnknownOpString = errors.New("rio: unknown opstring")

// Monitor is the provision monitor ("Monitor" in the paper's Fig. 2): it
// tracks registered cybernodes (leased, so silent node death is detected),
// holds deployed OperationalStrings, and reconciles planned-versus-actual
// instance counts, re-provisioning instances from failed nodes onto
// survivors.
type Monitor struct {
	clock  clockwork.Clock
	policy SelectionPolicy
	leases *lease.Table
	events *event.Generator

	mu       sync.Mutex
	nodes    map[ids.ServiceID]*Cybernode
	byLease  map[uint64]ids.ServiceID
	deployed map[string]*deployment
}

type deployment struct {
	ops       OpString
	instances []*instance
}

type instance struct {
	elemName string
	node     ids.ServiceID
	deployed *Deployed
}

// NewMonitor creates a provision monitor with the selection policy
// (LeastLoaded when nil).
func NewMonitor(clock clockwork.Clock, policy SelectionPolicy) *Monitor {
	if policy == nil {
		policy = LeastLoaded{}
	}
	m := &Monitor{
		clock:    clock,
		policy:   policy,
		events:   event.NewGenerator(ids.NewServiceID(), clock, lease.Policy{Max: lease.DefaultMax}),
		nodes:    make(map[ids.ServiceID]*Cybernode),
		byLease:  make(map[uint64]ids.ServiceID),
		deployed: make(map[string]*deployment),
	}
	m.leases = lease.NewTable(clock, lease.Policy{Max: lease.DefaultMax})
	m.leases.OnEnd(m.onNodeLeaseEnd)
	return m
}

// Events exposes the monitor's event generator for observers (the sensor
// browser subscribes to show provisioning activity).
func (m *Monitor) Events() *event.Generator { return m.events }

// RegisterCybernode adds a compute node under a lease. The node's owner
// keeps the lease renewed (heartbeat); Kill() cancels it at once.
// Registration triggers reconciliation, so pending elements provision as
// soon as a capable node appears.
func (m *Monitor) RegisterCybernode(c *Cybernode, leaseDur time.Duration) (lease.Lease, error) {
	if !c.Alive() {
		return lease.Lease{}, ErrNodeDead
	}
	lse := m.leases.Grant(leaseDur)
	m.mu.Lock()
	m.nodes[c.ID()] = c
	m.byLease[lse.ID] = c.ID()
	m.mu.Unlock()
	c.OnDeath(func(*Cybernode) { _ = lse.Cancel() })
	m.Reconcile()
	return lse, nil
}

// Nodes snapshots the live cybernodes, sorted by name.
func (m *Monitor) Nodes() []*Cybernode {
	m.leases.Sweep()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Cybernode, 0, len(m.nodes))
	for _, c := range m.nodes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Deploy installs an OperationalString and provisions its elements.
func (m *Monitor) Deploy(ops OpString) error {
	if err := ops.Validate(); err != nil {
		return err
	}
	// Normalize: an unset planned count means one instance. After this,
	// Planned is exact (SetPlanned may later drive it to zero).
	ops.Elements = append([]ServiceElement{}, ops.Elements...)
	for i := range ops.Elements {
		if ops.Elements[i].Planned <= 0 {
			ops.Elements[i].Planned = 1
		}
	}
	m.mu.Lock()
	if _, exists := m.deployed[ops.Name]; exists {
		m.mu.Unlock()
		return fmt.Errorf("rio: opstring %q already deployed", ops.Name)
	}
	m.deployed[ops.Name] = &deployment{ops: ops}
	m.mu.Unlock()
	m.Reconcile()
	return nil
}

// Undeploy stops every instance of the opstring and forgets it.
func (m *Monitor) Undeploy(name string) error {
	m.mu.Lock()
	dep, ok := m.deployed[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownOpString, name)
	}
	delete(m.deployed, name)
	instances := dep.instances
	m.mu.Unlock()
	for _, inst := range instances {
		if inst.deployed != nil {
			_ = inst.deployed.Node.Terminate(inst.deployed.ID)
		}
	}
	return nil
}

// SetPlanned rescales one element of a deployed opstring to n instances.
// Scaling up provisions immediately; scaling down terminates surplus
// instances (most recently provisioned first).
func (m *Monitor) SetPlanned(opName, elemName string, n int) error {
	if n < 0 {
		return fmt.Errorf("rio: planned count %d < 0", n)
	}
	m.mu.Lock()
	dep, ok := m.deployed[opName]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownOpString, opName)
	}
	found := false
	for i := range dep.ops.Elements {
		if dep.ops.Elements[i].Name == elemName {
			dep.ops.Elements[i].Planned = n
			found = true
			break
		}
	}
	if !found {
		m.mu.Unlock()
		return fmt.Errorf("rio: opstring %q has no element %q", opName, elemName)
	}
	// Collect surplus instances for termination (newest first).
	var surplus []*instance
	count := 0
	for _, inst := range dep.instances {
		if inst.elemName == elemName {
			count++
		}
	}
	if count > n {
		drop := count - n
		kept := dep.instances[:0]
		for i := len(dep.instances) - 1; i >= 0; i-- {
			inst := dep.instances[i]
			if inst.elemName == elemName && drop > 0 {
				surplus = append(surplus, inst)
				drop--
				continue
			}
			kept = append(kept, inst)
		}
		// kept is reversed; restore order.
		for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
			kept[i], kept[j] = kept[j], kept[i]
		}
		dep.instances = kept
	}
	m.mu.Unlock()

	for _, inst := range surplus {
		if inst.deployed != nil {
			_ = inst.deployed.Node.Terminate(inst.deployed.ID)
		}
	}
	m.Reconcile()
	return nil
}

// ElementStatus reports planned vs actual for one element.
type ElementStatus struct {
	Element string
	Planned int
	Actual  int
	Nodes   []string
}

// Status reports per-element deployment state for an opstring.
func (m *Monitor) Status(name string) ([]ElementStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dep, ok := m.deployed[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOpString, name)
	}
	var out []ElementStatus
	for _, elem := range dep.ops.Elements {
		st := ElementStatus{Element: elem.Name, Planned: elem.planned()}
		for _, inst := range dep.instances {
			if inst.elemName == elem.Name {
				st.Actual++
				if node, ok := m.nodes[inst.node]; ok {
					st.Nodes = append(st.Nodes, node.Name())
				}
			}
		}
		sort.Strings(st.Nodes)
		out = append(out, st)
	}
	return out, nil
}

// Reconcile provisions missing instances for every deployed opstring. It
// runs automatically on Deploy, RegisterCybernode and node loss; exposed
// for tests and periodic invocation.
func (m *Monitor) Reconcile() {
	m.leases.Sweep()
	type job struct {
		opName  string
		elem    ServiceElement
		missing int
	}
	m.mu.Lock()
	var jobs []job
	for name, dep := range m.deployed {
		for _, elem := range dep.ops.Elements {
			actual := 0
			for _, inst := range dep.instances {
				if inst.elemName == elem.Name {
					actual++
				}
			}
			if missing := elem.planned() - actual; missing > 0 {
				jobs = append(jobs, job{opName: name, elem: elem, missing: missing})
			}
		}
	}
	m.mu.Unlock()

	for _, j := range jobs {
		for i := 0; i < j.missing; i++ {
			if !m.provisionOne(j.opName, j.elem) {
				break // no capacity now; retry on next reconcile
			}
		}
	}
}

// provisionOne places a single instance, reporting success.
func (m *Monitor) provisionOne(opName string, elem ServiceElement) bool {
	for {
		node := m.selectNode(elem)
		if node == nil {
			m.events.Fire(EventPending, ProvisionNotice{
				OpString: opName, Element: elem.Name,
				Detail: "no admissible cybernode",
			})
			return false
		}
		d, err := node.Instantiate(elem)
		if err != nil {
			// Node raced into death or factory failure; try another.
			if errors.Is(err, ErrNodeDead) {
				continue
			}
			m.events.Fire(EventPending, ProvisionNotice{
				OpString: opName, Element: elem.Name, Node: node.Name(),
				Detail: err.Error(),
			})
			return false
		}
		m.mu.Lock()
		dep, ok := m.deployed[opName]
		if !ok {
			m.mu.Unlock()
			_ = node.Terminate(d.ID) // undeployed concurrently
			return false
		}
		dep.instances = append(dep.instances, &instance{
			elemName: elem.Name, node: node.ID(), deployed: d,
		})
		m.mu.Unlock()
		m.events.Fire(EventProvisioned, ProvisionNotice{
			OpString: opName, Element: elem.Name, Node: node.Name(),
		})
		return true
	}
}

// selectNode filters QoS-admissible live nodes and applies the policy.
func (m *Monitor) selectNode(elem ServiceElement) *Cybernode {
	m.mu.Lock()
	candidates := make([]*Cybernode, 0, len(m.nodes))
	for _, c := range m.nodes {
		if c.Alive() && elem.QoS.Admits(c.Capability(), c.Utilization()) {
			candidates = append(candidates, c)
		}
	}
	m.mu.Unlock()
	if len(candidates) == 0 {
		return nil
	}
	// Stable candidate order so policies behave deterministically.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name() < candidates[j].Name() })
	return m.policy.Select(candidates, elem)
}

// onNodeLeaseEnd loses the node whose lease expired (silent) or was cancelled.
func (m *Monitor) onNodeLeaseEnd(leaseID uint64, reason lease.Reason) error {
	m.mu.Lock()
	nodeID, ok := m.byLease[leaseID]
	if ok {
		delete(m.byLease, leaseID)
	}
	m.mu.Unlock()
	if ok {
		m.handleNodeLoss(nodeID, reason)
	}
	return nil
}

// handleNodeLoss drops the node and its instances, then re-provisions.
func (m *Monitor) handleNodeLoss(nodeID ids.ServiceID, reason lease.Reason) {
	m.mu.Lock()
	node, known := m.nodes[nodeID]
	if !known {
		m.mu.Unlock()
		return
	}
	delete(m.nodes, nodeID)
	relocating := 0
	for _, dep := range m.deployed {
		kept := dep.instances[:0]
		for _, inst := range dep.instances {
			if inst.node == nodeID {
				relocating++
				continue
			}
			kept = append(kept, inst)
		}
		dep.instances = kept
	}
	m.mu.Unlock()

	m.events.Fire(EventNodeLost, ProvisionNotice{Node: node.Name(), Detail: "lease " + string(reason)})
	if relocating > 0 {
		m.Reconcile()
		m.events.Fire(EventRelocated, ProvisionNotice{
			Node:   node.Name(),
			Detail: fmt.Sprintf("%d instance(s) re-provisioned", relocating),
		})
	}
}

// Sweep expires node leases (periodic failure detection).
func (m *Monitor) Sweep() { m.leases.Sweep() }

// Close shuts down the event generator.
func (m *Monitor) Close() { m.events.Close() }
