package remote

import (
	"errors"
	"fmt"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/srpc"
)

// The registrar protocol lets a provider process register services in a
// lookup service running elsewhere, renew/cancel the registration leases,
// and let consumer processes run template lookups. Remote proxies cross
// the wire as ProxyDescs and are materialized into AccessorClients on the
// consumer side. The lookup service pushes nothing: consumers poll Lookup,
// exactly as the sensor browser does. The server side holds the
// *registry.LookupService itself: a lookup reply is encoded straight from
// LookupShared, copying no stored item, and lease renewals and
// cancellations reach its item-lease table by id.

type wireItem struct {
	ID         ids.ServiceID `json:"id"`
	Types      []string      `json:"types"`
	Attributes attr.Set      `json:"attributes"`
	Proxy      *ProxyDesc    `json:"proxy,omitempty"`
}

type registerParams struct {
	Item  wireItem      `json:"item"`
	Lease time.Duration `json:"lease"`
}

type registerResult struct {
	ServiceID  ids.ServiceID `json:"serviceId"`
	LeaseID    uint64        `json:"leaseId"`
	Expiration time.Time     `json:"expiration"`
}

type leaseParams struct {
	LeaseID uint64        `json:"leaseId"`
	Lease   time.Duration `json:"lease"`
}

// renewResult is a renewed lease's new expiration.
type renewResult struct {
	Expiration time.Time `json:"expiration"`
}

type lookupParams struct {
	ID         ids.ServiceID `json:"id"`
	Types      []string      `json:"types"`
	Attributes attr.Set      `json:"attributes"`
	Max        int           `json:"max"`
}

type idParams struct {
	ID ids.ServiceID `json:"id"`
}

type modifyParams struct {
	ID         ids.ServiceID `json:"id"`
	Attributes attr.Set      `json:"attributes"`
}

type infoResult struct {
	ID   ids.ServiceID `json:"id"`
	Name string        `json:"name"`
}

// Describer is implemented by local services that know their own remote
// proxy descriptor, so they can be served to remote lookups.
type Describer interface {
	ProxyDesc() ProxyDesc
}

// ServeRegistrar exports a lookup service over srpc. Remote registrations
// carry proxy descriptors, which are what the item holds as its proxy
// inside the lookup service's own process; locally registered services
// are exported to remote lookups only if their proxy implements Describer.
func ServeRegistrar(server *srpc.Server, lus *registry.LookupService) {
	srpc.HandleFunc(server, "registrar.info", func(struct{}) (any, error) {
		return infoResult{ID: lus.ID(), Name: lus.Name()}, nil
	})
	srpc.HandleFunc(server, "registrar.register", func(p registerParams) (any, error) {
		if p.Item.Proxy == nil {
			return nil, errors.New("remote: registration without proxy descriptor")
		}
		item := registry.ServiceItem{
			ID:         p.Item.ID,
			Types:      p.Item.Types,
			Attributes: p.Item.Attributes,
			Service:    *p.Item.Proxy,
		}
		reg, err := lus.Register(item, p.Lease)
		if err != nil {
			return nil, err
		}
		return registerResult{
			ServiceID:  reg.ServiceID,
			LeaseID:    reg.Lease.ID,
			Expiration: reg.Lease.Expiration,
		}, nil
	})
	// A remote registration's lease names only its id, so renewal and
	// cancellation reach the item-lease table through the lookup service.
	leases := lus.ItemLeases()
	srpc.HandleFunc(server, "registrar.renew", func(p leaseParams) (any, error) {
		exp, err := leases.Renew(p.LeaseID, p.Lease)
		if err != nil {
			return nil, err
		}
		return renewResult{Expiration: exp}, nil
	})
	srpc.HandleFunc(server, "registrar.cancel", func(p leaseParams) (any, error) {
		return nil, leases.Cancel(p.LeaseID)
	})
	srpc.HandleFunc(server, "registrar.lookup", func(p lookupParams) (any, error) {
		// The reply only encodes the matches, so they may share the
		// lookup service's attribute sets: nothing writes into those.
		tmpl := registry.Template{ID: p.ID, Types: p.Types, Attributes: p.Attributes}
		items := lus.LookupShared(tmpl, p.Max)
		out := make(wireItems, 0, len(items))
		for _, item := range items {
			w := wireItem{ID: item.ID, Types: item.Types, Attributes: item.Attributes}
			switch svc := item.Service.(type) {
			case ProxyDesc:
				w.Proxy = &svc
			case Describer:
				d := svc.ProxyDesc()
				w.Proxy = &d
			}
			out = append(out, w)
		}
		return out, nil
	})
	srpc.HandleFunc(server, "registrar.deregister", func(p idParams) (any, error) {
		return nil, lus.Deregister(p.ID)
	})
	srpc.HandleFunc(server, "registrar.modify", func(p modifyParams) (any, error) {
		return nil, lus.ModifyAttributes(p.ID, p.Attributes)
	})
}

// RegistrarClient is a registry.Registrar stub over srpc.
type RegistrarClient struct {
	client  *srpc.Client
	timeout time.Duration
	// token is the deployment's shared secret: sent on this connection
	// and handed to every stub Lookup materializes.
	token string
	id    ids.ServiceID
	name  string
}

// NewRegistrarClient dials a remote registrar and fetches its identity.
func NewRegistrarClient(locator string, timeout time.Duration) (*RegistrarClient, error) {
	return NewRegistrarClientWithToken(locator, "", timeout)
}

// ID implements registry.Registrar.
func (r *RegistrarClient) ID() ids.ServiceID { return r.id }

// Name implements registry.Registrar.
func (r *RegistrarClient) Name() string { return r.name }

// Register implements registry.Registrar. The item's Service must be a
// ProxyDesc or a Describer (a locally exported service).
func (r *RegistrarClient) Register(item registry.ServiceItem, leaseDur time.Duration) (registry.Registration, error) {
	var desc *ProxyDesc
	switch svc := item.Service.(type) {
	case ProxyDesc:
		desc = &svc
	case *ProxyDesc:
		desc = svc
	case Describer:
		d := svc.ProxyDesc()
		desc = &d
	default:
		return registry.Registration{}, fmt.Errorf("remote: cannot export %T; register a ProxyDesc", item.Service)
	}
	p := registerParams{
		Item:  wireItem{ID: item.ID, Types: item.Types, Attributes: item.Attributes, Proxy: desc},
		Lease: leaseDur,
	}
	var res registerResult
	if err := r.client.Call("registrar.register", p, &res); err != nil {
		return registry.Registration{}, err
	}
	return registry.Registration{
		ServiceID: res.ServiceID,
		Lease: lease.Lease{
			ID:         res.LeaseID,
			Expiration: res.Expiration,
			Grantor:    &remoteGrantor{client: r.client},
		},
	}, nil
}

// remoteGrantor renews/cancels registration leases over the wire.
type remoteGrantor struct{ client *srpc.Client }

// Renew implements lease.Grantor.
func (g *remoteGrantor) Renew(id uint64, requested time.Duration) (time.Time, error) {
	var res renewResult
	err := g.client.Call("registrar.renew", leaseParams{LeaseID: id, Lease: requested}, &res)
	return res.Expiration, err
}

// Cancel implements lease.Grantor.
func (g *remoteGrantor) Cancel(id uint64) error {
	return g.client.Call("registrar.cancel", leaseParams{LeaseID: id}, nil)
}

// Deregister implements registry.Registrar.
func (r *RegistrarClient) Deregister(id ids.ServiceID) error {
	return r.client.Call("registrar.deregister", idParams{ID: id}, nil)
}

// ModifyAttributes implements registry.Registrar.
func (r *RegistrarClient) ModifyAttributes(id ids.ServiceID, attrs attr.Set) error {
	return r.client.Call("registrar.modify", modifyParams{ID: id, Attributes: attrs}, nil)
}

// Lookup implements registry.Registrar. Items that carry an accessor or
// servicer descriptor come back with a stub stamped with the item's
// service ID and this registrar's token — data only: one registrar round
// trip and no provider connection, however many items match. An endpoint
// that is gone shows when the stub is called, not here (the registration
// outlives the process, the proxy does not).
func (r *RegistrarClient) Lookup(tmpl registry.Template, maxMatches int) []registry.ServiceItem {
	p := lookupParams{ID: tmpl.ID, Types: tmpl.Types, Attributes: tmpl.Attributes, Max: maxMatches}
	var ws wireItems
	if err := r.client.Call("registrar.lookup", p, &ws); err != nil {
		return nil
	}
	out := make([]registry.ServiceItem, 0, len(ws))
	for _, w := range ws {
		item := registry.ServiceItem{ID: w.ID, Types: w.Types, Attributes: w.Attributes}
		if w.Proxy != nil {
			switch w.Proxy.Kind {
			case AccessorKind:
				item.Service = &AccessorClient{stub{desc: *w.Proxy, timeout: r.timeout, token: r.token}}
			case ServicerKind:
				item.Service = &ServicerClient{stub{desc: *w.Proxy, timeout: r.timeout, token: r.token}}
			}
		}
		out = append(out, item)
	}
	return out
}

// LookupOne implements registry.Registrar.
func (r *RegistrarClient) LookupOne(tmpl registry.Template) (registry.ServiceItem, error) {
	items := r.Lookup(tmpl, 1)
	if len(items) == 0 {
		return registry.ServiceItem{}, registry.ErrNotFound
	}
	return items[0], nil
}

// Close releases the connection.
func (r *RegistrarClient) Close() { r.client.Close() }

var _ registry.Registrar = (*RegistrarClient)(nil)

// NewRegistrarClientWithToken dials a remote registrar whose server
// requires the shared secret ("" for none) and fetches its identity.
func NewRegistrarClientWithToken(locator, token string, timeout time.Duration) (*RegistrarClient, error) {
	c, err := srpc.Dial(locator, timeout)
	if err != nil {
		return nil, err
	}
	c.SetToken(token)
	rc := &RegistrarClient{client: c, timeout: timeout, token: token}
	var info infoResult
	if err := c.Call("registrar.info", nil, &info); err != nil {
		c.Close()
		return nil, fmt.Errorf("remote: fetching registrar identity: %w", err)
	}
	rc.id, rc.name = info.ID, info.Name
	return rc, nil
}
