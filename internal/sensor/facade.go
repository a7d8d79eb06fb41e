package sensor

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/ids"
	"sensorcer/internal/registry"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
)

// ServiceEntry is one row of the network's service list — what the Inca X
// browser shows in the paper's Fig. 2.
type ServiceEntry struct {
	ID         ids.ServiceID
	Name       string
	Category   string // ELEMENTARY / COMPOSITE / FACADE / "" (infrastructure)
	Types      []string
	Attributes attr.Set
}

// ErrUnknownService is returned when a named sensor service cannot be
// found in any lookup service.
var ErrUnknownService = errors.New("sensor: unknown service")

// ErrNotComposite is returned for composite-management operations on
// non-composite services.
var ErrNotComposite = errors.New("sensor: service is not a composite")

// ErrNotOwned is returned when removing a service this manager did not
// create.
var ErrNotOwned = errors.New("sensor: service not managed here")

// NetworkManager provides the paper's sensor-network-management facility
// (§V-A "Network Management: the facility provided by the specialized
// façade service, to add and remove sensor nodes, subnets, and create
// dynamic grouping"). All operations address services by name and act
// through the lookup services, so the semantics of managing the whole
// network reduce to managing individual CSPs.
type NetworkManager struct {
	clock    clockwork.Clock
	mgr      *discovery.Manager
	accessor *sorcer.Accessor

	mu          sync.Mutex
	owned       map[string]*managedService
	provisioner *Provisioner
	exporter    ProxyExporter
}

// ProxyExporter turns a locally created sensor service into the proxy
// object to register in lookup services. In-process deployments need none
// (the accessor itself is the proxy); cross-process deployments install
// remote.AccessorExporter so composites created here are reachable from
// other processes (the returned object implements both DataAccessor and
// the remote Describer).
type ProxyExporter func(name string, acc DataAccessor) any

type managedService struct {
	csp  *CSP
	join *discovery.Join
}

// NewNetworkManager creates a manager over the discovery manager's
// registrar set.
func NewNetworkManager(clock clockwork.Clock, mgr *discovery.Manager) *NetworkManager {
	return &NetworkManager{
		clock:    clock,
		mgr:      mgr,
		accessor: sorcer.NewAccessor(mgr),
		owned:    make(map[string]*managedService),
	}
}

// AttachProvisioner wires in the Rio-backed sensor service provisioner,
// enabling ProvisionComposite.
func (nm *NetworkManager) AttachProvisioner(p *Provisioner) {
	nm.mu.Lock()
	nm.provisioner = p
	nm.mu.Unlock()
}

// SetExporter installs the proxy exporter for locally created composites.
func (nm *NetworkManager) SetExporter(fn ProxyExporter) {
	nm.mu.Lock()
	nm.exporter = fn
	nm.mu.Unlock()
}

// FindAccessor resolves a sensor service by name to its DataAccessor. The
// lookup requires only the AccessorType registration: remote accessor
// stubs are DataAccessors without being Servicers, and direct P2P reads do
// not need the exertion surface.
func (nm *NetworkManager) FindAccessor(name string) (DataAccessor, error) {
	tmpl := registry.ByName(name, AccessorType)
	for _, reg := range nm.mgr.Registrars() {
		item, err := reg.LookupOne(tmpl)
		if err != nil {
			continue
		}
		acc, ok := item.Service.(DataAccessor)
		if !ok {
			return nil, fmt.Errorf("sensor: %q registered without a DataAccessor proxy", name)
		}
		return acc, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownService, name)
}

// GetValue reads the named sensor service.
func (nm *NetworkManager) GetValue(name string) (probe.Reading, error) {
	acc, err := nm.FindAccessor(name)
	if err != nil {
		return probe.Reading{}, err
	}
	return acc.GetValue()
}

// findCSP resolves a named service and requires it to be a composite.
// Owned composites resolve directly (their registered proxy may be an
// export wrapper rather than the *CSP itself).
func (nm *NetworkManager) findCSP(name string) (*CSP, error) {
	nm.mu.Lock()
	if ms, ok := nm.owned[name]; ok {
		nm.mu.Unlock()
		return ms.csp, nil
	}
	nm.mu.Unlock()
	acc, err := nm.FindAccessor(name)
	if err != nil {
		return nil, err
	}
	csp, ok := acc.(*CSP)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotComposite, name)
	}
	return csp, nil
}

// ComposeService creates a composite from named component services, with
// an optional compute-expression, and publishes it to the network — the
// paper's §VI steps 1–2 ("formed a sensor subnet with three elementary
// sensor services; associated a compute-expression").
func (nm *NetworkManager) ComposeService(name string, children []string, expression string) (*CSP, error) {
	if name == "" {
		return nil, errors.New("sensor: composite needs a name")
	}
	if _, err := nm.FindAccessor(name); err == nil {
		return nil, fmt.Errorf("sensor: service %q already exists", name)
	}
	csp := NewCSP(name, WithCSPClock(nm.clock))
	for _, childName := range children {
		acc, err := nm.FindAccessor(childName)
		if err != nil {
			return nil, fmt.Errorf("sensor: composing %q: %w", name, err)
		}
		if _, err := csp.AddChild(acc); err != nil {
			return nil, err
		}
	}
	if err := csp.SetExpression(expression); err != nil {
		return nil, err
	}
	nm.mu.Lock()
	exporter := nm.exporter
	nm.mu.Unlock()
	var join *discovery.Join
	if exporter == nil {
		join = csp.Publish(nm.clock, nm.mgr)
	} else {
		// Export the composite so remote registrars can carry it too.
		item := registry.ServiceItem{
			ID:      csp.ID(),
			Service: exporter(name, csp),
			Types:   []string{AccessorType},
			Attributes: attr.Set{
				attr.Name(name),
				attr.ServiceType(CategoryComposite),
				attr.ServiceInfo("SenSORCER", "CSP", "1.0"),
			},
		}
		join = discovery.NewJoin(nm.clock, nm.mgr, item)
	}
	nm.mu.Lock()
	nm.owned[name] = &managedService{csp: csp, join: join}
	nm.mu.Unlock()
	return csp, nil
}

// ComposeByTemplate creates a composite over every sensor service whose
// attributes match the template — the paper's "dynamic grouping" (§V-A):
// e.g. group all temperature sensors in building "CP TTU" without naming
// them. Matching services are composed in name order so variable bindings
// are stable; the expression may be empty (default average).
func (nm *NetworkManager) ComposeByTemplate(name string, template attr.Set, expression string) (*CSP, int, error) {
	seen := map[string]bool{}
	var members []string
	tmpl := registry.Template{Types: []string{AccessorType}, Attributes: template}
	for _, reg := range nm.mgr.Registrars() {
		for _, item := range reg.Lookup(tmpl, 0) {
			n := attr.NameOf(item.Attributes)
			if n == "" || seen[n] || n == name {
				continue
			}
			seen[n] = true
			members = append(members, n)
		}
	}
	sort.Strings(members)
	if len(members) == 0 {
		return nil, 0, fmt.Errorf("%w: no sensor matches template %v", ErrUnknownService, template)
	}
	csp, err := nm.ComposeService(name, members, expression)
	if err != nil {
		return nil, 0, err
	}
	return csp, len(members), nil
}

// AddToComposite composes an additional named service into a composite,
// returning the bound variable name.
func (nm *NetworkManager) AddToComposite(composite, child string) (string, error) {
	csp, err := nm.findCSP(composite)
	if err != nil {
		return "", err
	}
	acc, err := nm.FindAccessor(child)
	if err != nil {
		return "", err
	}
	return csp.AddChild(acc)
}

// RemoveFromComposite removes a component service from a composite.
func (nm *NetworkManager) RemoveFromComposite(composite, child string) error {
	csp, err := nm.findCSP(composite)
	if err != nil {
		return err
	}
	return csp.RemoveChild(child)
}

// SetExpression installs a compute-expression on a composite.
func (nm *NetworkManager) SetExpression(composite, expression string) error {
	csp, err := nm.findCSP(composite)
	if err != nil {
		return err
	}
	return csp.SetExpression(expression)
}

// CompositeInfo reports a composite's children and expression (the
// "Sensor Service Information" panel of Fig. 2).
func (nm *NetworkManager) CompositeInfo(name string) ([]ChildInfo, string, error) {
	csp, err := nm.findCSP(name)
	if err != nil {
		return nil, "", err
	}
	return csp.Children(), csp.Expression(), nil
}

// RemoveService withdraws a composite this manager created.
func (nm *NetworkManager) RemoveService(name string) error {
	nm.mu.Lock()
	ms, ok := nm.owned[name]
	if ok {
		delete(nm.owned, name)
	}
	nm.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotOwned, name)
	}
	ms.join.Terminate()
	return nil
}

// ProvisionComposite deploys a new composite through the Rio provisioner
// onto a capable cybernode — the paper's §VI step 3 ("provisioned a new
// composite service on to the network").
func (nm *NetworkManager) ProvisionComposite(name string, children []string, expression string, qos QoSSpec) error {
	nm.mu.Lock()
	p := nm.provisioner
	nm.mu.Unlock()
	if p == nil {
		return errors.New("sensor: no provisioner attached")
	}
	return p.ProvisionComposite(name, children, expression, qos)
}

// ScaleComposite rescales a provisioned composite to n instances.
func (nm *NetworkManager) ScaleComposite(name string, n int) error {
	nm.mu.Lock()
	p := nm.provisioner
	nm.mu.Unlock()
	if p == nil {
		return errors.New("sensor: no provisioner attached")
	}
	return p.Scale(name, n)
}

// Facade is the SenSORCER Façade: "the single entry point of the
// SenSORCER system" (§V-B). The sensor browser attaches to it; it exposes
// the service list and delegates management to its NetworkManager.
type Facade struct {
	id      ids.ServiceID
	name    string
	clock   clockwork.Clock
	mgr     *discovery.Manager
	network *NetworkManager
}

// NewFacade creates a façade over the discovery manager.
func NewFacade(name string, clock clockwork.Clock, mgr *discovery.Manager) *Facade {
	return &Facade{
		id:      ids.NewServiceID(),
		name:    name,
		clock:   clock,
		mgr:     mgr,
		network: NewNetworkManager(clock, mgr),
	}
}

// ID returns the façade identity.
func (f *Facade) ID() ids.ServiceID { return f.id }

// Name returns the façade name.
func (f *Facade) Name() string { return f.name }

// Network returns the management interface.
func (f *Facade) Network() *NetworkManager { return f.network }

// ListServices snapshots every service registered in every discovered
// lookup service, deduplicated, sorted by name — the browser's service
// tree.
func (f *Facade) ListServices() []ServiceEntry {
	seen := map[ids.ServiceID]bool{}
	var out []ServiceEntry
	for _, reg := range f.mgr.Registrars() {
		for _, item := range reg.Lookup(registry.Template{}, 0) {
			if seen[item.ID] {
				continue
			}
			seen[item.ID] = true
			out = append(out, entryFromItem(item))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].ID.String() < out[j].ID.String()
	})
	return out
}

func entryFromItem(item registry.ServiceItem) ServiceEntry {
	e := ServiceEntry{
		ID:         item.ID,
		Name:       attr.NameOf(item.Attributes),
		Types:      item.Types,
		Attributes: item.Attributes,
	}
	if st, ok := item.Attributes.Find(attr.TypeServiceType); ok {
		if v, ok := st.Get("category"); ok {
			e.Category, _ = v.(string)
		}
	}
	return e
}

// SensorEntries filters ListServices to sensor services only.
func (f *Facade) SensorEntries() []ServiceEntry {
	var out []ServiceEntry
	for _, e := range f.ListServices() {
		for _, t := range e.Types {
			if t == AccessorType {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Publish joins the façade itself to the lookup services, so browsers can
// find it ("SenSORCER Facade" in Fig. 2's service list). The façade is not
// a Servicer; it registers under FacadeType with itself as the proxy.
func (f *Facade) Publish(extra ...attr.Entry) *discovery.Join {
	attrs := attr.Set{
		attr.Name(f.name),
		attr.ServiceType(CategoryFacade),
		attr.ServiceInfo("SenSORCER", "Facade", "1.0"),
		attr.Comment("SenSORCER Facade"),
	}
	attrs = append(attrs, extra...)
	item := registry.ServiceItem{
		ID:         f.id,
		Service:    f,
		Types:      []string{FacadeType},
		Attributes: attrs,
	}
	return discovery.NewJoin(f.clock, f.mgr, item)
}
