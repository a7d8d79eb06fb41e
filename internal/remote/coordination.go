package remote

import (
	"fmt"
	"time"

	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/srpc"
)

// The coordination protocol lets coordinator replicas in separate
// processes compete for a coordination lease hosted by a lookup service
// elsewhere: acquire the single-holder grant (winning a fencing token),
// renew it by id, and abdicate. The fencing semantics are entirely the
// lease table's — the wire only has to preserve the sentinels a replica
// branches on (ErrHeld: stand by; ErrUnknownLease: deposed).

type wireCoordAcquire struct {
	Name   string  `json:"name"`
	Holder string  `json:"holder"`
	DurSec float64 `json:"durSec"`
}

type wireCoordGrant struct {
	Token      uint64    `json:"token"`
	Holder     string    `json:"holder"`
	LeaseID    uint64    `json:"leaseId"`
	Expiration time.Time `json:"expiration"`
}

type wireCoordName struct {
	Name string `json:"name"`
}

type wireCoordHolder struct {
	Holder string `json:"holder"`
	Token  uint64 `json:"token"`
	OK     bool   `json:"ok"`
}

type wireCoordLease struct {
	LeaseID uint64  `json:"leaseId"`
	DurSec  float64 `json:"durSec"`
}

// CoordLeaseSource is the surface a lookup service exports for remote
// coordination: the CoordGrantor competition plus by-id renewal.
// *registry.LookupService implements it.
type CoordLeaseSource interface {
	registry.CoordGrantor
	RenewCoordination(id uint64, d time.Duration) (time.Time, error)
	CancelCoordination(id uint64) error
}

// ServeCoordination exports the lookup service's coordination leases
// over srpc, so coordinator replicas in other processes can compete for
// them.
func ServeCoordination(server *srpc.Server, src CoordLeaseSource) {
	srpc.HandleFunc(server, "coord.acquire", func(p wireCoordAcquire) (any, error) {
		g, err := src.AcquireCoordination(p.Name, p.Holder, time.Duration(p.DurSec*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		return wireCoordGrant{
			Token:      g.Token,
			Holder:     g.Holder,
			LeaseID:    g.Lease.ID,
			Expiration: g.Lease.Expiration,
		}, nil
	})
	srpc.HandleFunc(server, "coord.holder", func(p wireCoordName) (any, error) {
		holder, token, ok := src.CoordinationHolder(p.Name)
		return wireCoordHolder{Holder: holder, Token: token, OK: ok}, nil
	})
	srpc.HandleFunc(server, "coord.renew", func(p wireCoordLease) (any, error) {
		return src.RenewCoordination(p.LeaseID, time.Duration(p.DurSec*float64(time.Second)))
	})
	srpc.HandleFunc(server, "coord.cancel", func(p wireCoordLease) (any, error) {
		return nil, src.CancelCoordination(p.LeaseID)
	})
}

// coordSentinels are the server-side failures a coordinator replica
// branches on (see sentinelErr).
var coordSentinels = []error{lease.ErrHeld, lease.ErrUnknownLease, lease.ErrCanceled}

// CoordinationClient is a registry.CoordGrantor stub over srpc: the
// handle a separate-process coordinator replica competes through.
type CoordinationClient struct {
	client  *srpc.Client
	timeout time.Duration
}

// NewCoordinationClient dials a lookup service's coordination endpoints.
func NewCoordinationClient(locator string, timeout time.Duration) (*CoordinationClient, error) {
	c, err := srpc.Dial(locator, timeout)
	if err != nil {
		return nil, fmt.Errorf("remote: dialing coordination host %s: %w", locator, err)
	}
	return &CoordinationClient{client: c, timeout: timeout}, nil
}

// AcquireCoordination implements registry.CoordGrantor over srpc. The
// returned grant's lease renews and cancels through this client.
func (c *CoordinationClient) AcquireCoordination(name, holder string, dur time.Duration) (lease.FencedGrant, error) {
	var res wireCoordGrant
	err := c.client.CallWithTimeout("coord.acquire",
		wireCoordAcquire{Name: name, Holder: holder, DurSec: dur.Seconds()}, &res, c.timeout)
	if err != nil {
		return lease.FencedGrant{}, sentinelErr(err, coordSentinels...)
	}
	return lease.FencedGrant{
		Token:  res.Token,
		Holder: res.Holder,
		Lease: lease.Lease{
			ID:         res.LeaseID,
			Expiration: res.Expiration,
			Grantor:    &coordGrantor{client: c},
		},
	}, nil
}

// CoordinationHolder implements registry.CoordGrantor over srpc. A
// transport failure reports no holder — indistinguishable, to a standby,
// from the lease being free; the authoritative answer is Acquire's.
func (c *CoordinationClient) CoordinationHolder(name string) (string, uint64, bool) {
	var res wireCoordHolder
	if err := c.client.CallWithTimeout("coord.holder", wireCoordName{Name: name}, &res, c.timeout); err != nil {
		return "", 0, false
	}
	return res.Holder, res.Token, res.OK
}

// Close releases the connection.
func (c *CoordinationClient) Close() { c.client.Close() }

var _ registry.CoordGrantor = (*CoordinationClient)(nil)

// coordGrantor renews/cancels coordination leases over the wire.
type coordGrantor struct{ client *CoordinationClient }

// Renew implements lease.Grantor.
func (g *coordGrantor) Renew(id uint64, requested time.Duration) (time.Time, error) {
	var exp time.Time
	err := g.client.client.CallWithTimeout("coord.renew",
		wireCoordLease{LeaseID: id, DurSec: requested.Seconds()}, &exp, g.client.timeout)
	return exp, sentinelErr(err, coordSentinels...)
}

// Cancel implements lease.Grantor.
func (g *coordGrantor) Cancel(id uint64) error {
	return sentinelErr(g.client.client.CallWithTimeout("coord.cancel",
		wireCoordLease{LeaseID: id}, nil, g.client.timeout), coordSentinels...)
}
