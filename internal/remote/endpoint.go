package remote

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensorcer/internal/srpc"
)

// A stub materialised from an accessor or servicer ProxyDesc is plain
// data — what a Jini smart proxy is: downloaded state that connects when
// called. Its first call takes a reference on the process's one shared
// connection to the descriptor's Locator; Close gives it back and the last
// one out closes the connection. srpc multiplexes calls and carries the
// auth token per request, so any number of stubs (and tokens) share one
// socket and one read loop per endpoint.

// endpoints is the process's endpoint table: empty until a stub is first
// called, and empty again once every called stub is Closed.
var endpoints endpointTable

type endpointTable struct {
	mu sync.Mutex
	m  map[string]*endpoint
}

// acquire takes a reference on the locator's entry, publishing one if need
// be. Nothing is dialled under the table lock.
func (t *endpointTable) acquire(locator string) *endpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := t.m[locator]
	if ep == nil {
		if t.m == nil {
			t.m = make(map[string]*endpoint)
		}
		ep = &endpoint{locator: locator}
		t.m[locator] = ep
	}
	ep.refs++
	return ep
}

// release gives a reference back; the last one unpublishes the entry and
// closes its connection.
func (t *endpointTable) release(ep *endpoint) {
	t.mu.Lock()
	ep.refs--
	last := ep.refs == 0
	if last {
		delete(t.m, ep.locator)
	}
	t.mu.Unlock()
	if last {
		ep.close()
	}
}

// endpoint is one table entry: the shared connection to a locator.
type endpoint struct {
	locator string
	refs    int // guarded by the table's mu

	mu     sync.Mutex
	conn   *sharedConn // current connection or dial attempt
	closed bool
}

// sharedConn is one dial of an endpoint: published under the endpoint's
// lock, dialled outside it behind the once, which also single-flights
// concurrent first users.
type sharedConn struct {
	once   sync.Once
	client *srpc.Client
	err    error
}

func (c *sharedConn) dial(locator string, timeout time.Duration) {
	c.once.Do(func() {
		if c.client, c.err = srpc.Dial(locator, timeout); c.err != nil {
			c.err = fmt.Errorf("remote: dialing %s: %w", locator, c.err)
		}
	})
}

// client returns the endpoint's live connection. A spent one — a failed
// dial, a peer that went away — is replaced by whoever finds it first, so
// a stub outlives its provider's restart and a dead endpoint costs each
// call one dial attempt. timeout bounds the dial and becomes the
// connection's default call timeout.
func (e *endpoint) client(timeout time.Duration) (*srpc.Client, error) {
	e.mu.Lock()
	c := e.conn
	e.mu.Unlock()
	if c != nil {
		if c.dial(e.locator, timeout); c.err == nil && !c.client.Lost() {
			return c.client, nil
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, srpc.ErrClientClosed
	}
	if e.conn == c {
		e.conn = new(sharedConn)
	}
	c = e.conn
	e.mu.Unlock()
	c.dial(e.locator, timeout)
	return c.client, c.err
}

// close runs once the last reference is gone.
func (e *endpoint) close() {
	e.mu.Lock()
	c := e.conn
	e.conn, e.closed = nil, true
	e.mu.Unlock()
	if c != nil {
		// Wait out a dial in flight; one not yet begun now never happens.
		c.once.Do(func() {})
		if c.client != nil {
			c.client.Close()
		}
	}
}

// stub is what AccessorClient and ServicerClient share: the descriptor
// and call settings and, once called, a reference on the endpoint.
type stub struct {
	desc    ProxyDesc
	timeout time.Duration
	token   string

	// acquire guards ep: the first call takes the reference, Close spends
	// the once so no later call can.
	acquire sync.Once
	ep      *endpoint
	closed  atomic.Bool
}

// SetToken sets the shared secret the stub's calls carry. Set before use.
func (s *stub) SetToken(token string) { s.token = token }

// call runs one srpc method on the endpoint's connection, which the
// endpoint redials if the last one was lost.
func (s *stub) call(method string, params, out any) error {
	if s.closed.Load() {
		return srpc.ErrClientClosed
	}
	s.acquire.Do(func() { s.ep = endpoints.acquire(s.desc.Locator) })
	if s.ep == nil {
		return srpc.ErrClientClosed // Close won the once
	}
	client, err := s.ep.client(s.timeout)
	if err != nil {
		return err
	}
	return client.CallWithToken(method, params, out, s.timeout, s.token)
}

// Close releases the stub's reference on its endpoint's connection. A stub
// never called holds nothing; a call after Close fails with
// srpc.ErrClientClosed without dialling.
func (s *stub) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.acquire.Do(func() {})
	if s.ep != nil {
		endpoints.release(s.ep)
	}
}

// sentinelErr maps a server-side failure back onto the first of
// sentinels its message names: srpc flattens errors to strings, and the
// caller branches on the sentinel. Any other error passes through.
func sentinelErr(err error, sentinels ...error) error {
	var re *srpc.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	for _, sentinel := range sentinels {
		if strings.Contains(re.Message, sentinel.Error()) {
			return fmt.Errorf("%w: %s", sentinel, re.Message)
		}
	}
	return err
}
