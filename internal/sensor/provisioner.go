package sensor

import (
	"errors"
	"fmt"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/rio"
)

// CompositeBeanType is the Rio bean factory key for provisioned composite
// sensor services.
const CompositeBeanType = "sensorcer/composite"

// QoSSpec restates the Rio QoS surface at the sensor API level, so façade
// clients do not import rio directly.
type QoSSpec struct {
	MinCPUs        int
	MinMemoryMB    int
	Arch           string
	Labels         map[string]string
	MaxUtilization float64
}

func (q QoSSpec) rio() rio.QoS {
	return rio.QoS{
		MinCPUs:        q.MinCPUs,
		MinMemory:      q.MinMemoryMB,
		Arch:           q.Arch,
		Labels:         q.Labels,
		MaxUtilization: q.MaxUtilization,
	}
}

// Provisioner is the paper's Sensor Service Provisioner (§V-B): it
// provisions sensor services "based on quality of service specified by
// requestors according to the Rio framework", dynamically allocating a CSP
// to a capable cybernode. It installs a composite bean factory into the
// shared factory registry and translates façade requests into
// OperationalStrings for the provision monitor.
type Provisioner struct {
	monitor *rio.Monitor
	clock   clockwork.Clock
	mgr     *discovery.Manager
	resolve func(name string) (DataAccessor, error)
}

// NewProvisioner creates a sensor service provisioner and registers the
// composite bean factory with the cybernodes' factory registry.
func NewProvisioner(monitor *rio.Monitor, factories *rio.FactoryRegistry, clock clockwork.Clock, mgr *discovery.Manager, resolve func(string) (DataAccessor, error)) *Provisioner {
	p := &Provisioner{monitor: monitor, clock: clock, mgr: mgr, resolve: resolve}
	factories.Register(CompositeBeanType, p.newCompositeBean)
	return p
}

// ProvisionComposite deploys one composite instance matching the QoS.
func (p *Provisioner) ProvisionComposite(name string, children []string, expression string, qos QoSSpec) error {
	if name == "" {
		return errors.New("sensor: provisioned composite needs a name")
	}
	elem := rio.ServiceElement{
		Name: name,
		Type: CompositeBeanType,
		QoS:  qos.rio(),
		Config: map[string]any{
			"name":       name,
			"children":   children,
			"expression": expression,
		},
	}
	return p.monitor.Deploy(rio.OpString{Name: opStringName(name), Elements: []rio.ServiceElement{elem}})
}

// Scale rescales a provisioned composite to n instances — the answer to
// the paper's motivation #4 ("no efficient method of handling growing
// number of sensors"): more requestors, more instances, same name.
func (p *Provisioner) Scale(name string, n int) error {
	return p.monitor.SetPlanned(opStringName(name), name, n)
}

// Status reports the deployment state of a provisioned composite.
func (p *Provisioner) Status(name string) ([]rio.ElementStatus, error) {
	return p.monitor.Status(opStringName(name))
}

func opStringName(name string) string { return "sensorcer/" + name }

func (p *Provisioner) newCompositeBean(elem rio.ServiceElement) (rio.Bean, error) {
	name, _ := elem.Config["name"].(string)
	if name == "" {
		return nil, errors.New("sensor: composite bean config missing name")
	}
	var children []string
	switch v := elem.Config["children"].(type) {
	case []string:
		children = v
	case []any: // after a JSON round trip through srpc
		for _, x := range v {
			if s, ok := x.(string); ok {
				children = append(children, s)
			}
		}
	}
	expression, _ := elem.Config["expression"].(string)
	return &compositeBean{
		provisioner: p,
		name:        name,
		children:    children,
		expression:  expression,
	}, nil
}

// compositeBean is the Rio service bean hosting one provisioned CSP: on
// Start it assembles the composite from the named component services and
// publishes it; on Stop (node death or undeploy) it withdraws it. Failover
// works end to end: the monitor re-instantiates the bean on a surviving
// node and the service name reappears in the lookup services.
type compositeBean struct {
	provisioner *Provisioner
	name        string
	children    []string
	expression  string

	csp  *CSP
	join *discovery.Join
}

// Start implements rio.Bean.
func (b *compositeBean) Start(node *rio.Cybernode) error {
	csp := NewCSP(b.name, WithCSPClock(b.provisioner.clock))
	for _, childName := range b.children {
		acc, err := b.provisioner.resolve(childName)
		if err != nil {
			return fmt.Errorf("sensor: provisioning %q: %w", b.name, err)
		}
		if _, err := csp.AddChild(acc); err != nil {
			return err
		}
	}
	if err := csp.SetExpression(b.expression); err != nil {
		return err
	}
	b.csp = csp
	b.join = csp.Publish(b.provisioner.clock, b.provisioner.mgr,
		attr.Comment("provisioned on "+node.Name()))
	return nil
}

// Stop implements rio.Bean.
func (b *compositeBean) Stop() error {
	if b.join != nil {
		b.join.Terminate()
		b.join = nil
	}
	return nil
}
