package registry

import (
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
)

// Registrar is the client-facing surface of a lookup service. In-process
// federations use *LookupService directly; cross-process deployments use an
// srpc client stub. Discovery (package discovery) deals only in Registrars,
// so the two are interchangeable.
type Registrar interface {
	// ID returns the registrar's own service ID.
	ID() ids.ServiceID
	// Name returns the registrar's administrative name (host:port).
	Name() string
	// Register adds or replaces a service registration under a lease.
	Register(item ServiceItem, leaseDur time.Duration) (Registration, error)
	// Deregister removes a service immediately.
	Deregister(id ids.ServiceID) error
	// ModifyAttributes replaces a registration's attribute set.
	ModifyAttributes(id ids.ServiceID, attrs attr.Set) error
	// Lookup returns up to maxMatches matching items (all if <= 0).
	Lookup(tmpl Template, maxMatches int) []ServiceItem
	// LookupOne returns the first match or ErrNotFound.
	LookupOne(tmpl Template) (ServiceItem, error)
}

// Compile-time check that the in-process LUS satisfies Registrar.
var _ Registrar = (*LookupService)(nil)
