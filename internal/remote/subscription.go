// Subscription streaming: the remote face of the push-based
// subscription plane. A provider process exports its subscribe.Hub with
// ServeSubscriptions on the "subscribe.stream" stream method; consumers
// open one multiplexed srpc stream per subscription with Subscribe (or
// ResumeSubscription after a disconnect) and receive conflated updates
// in the compact delta encoding. The server-side sink maps srpc's
// credit window onto the hub's backpressure contract, so a slow
// consumer conflates instead of blocking the publisher.
package remote

import (
	"errors"
	"fmt"
	"time"

	"sensorcer/internal/ids"
	"sensorcer/internal/srpc"
	"sensorcer/internal/subscribe"
)

// SubscribeMethod is the srpc stream method subscriptions ride on.
const SubscribeMethod = "subscribe.stream"

// subscribeParams is the stream-open payload.
type subscribeParams struct {
	// Token names the subscription; the client chooses it so a resume
	// after a disconnect needs no extra handshake.
	Token string `json:"token"`
	// Resume reattaches a parked durable subscription instead of
	// creating one.
	Resume bool `json:"resume,omitempty"`
	// Durable subscriptions survive disconnects: the hub parks them
	// (TTL below) and conflates filtered readings for a Resume.
	Durable bool `json:"durable,omitempty"`
	// DurableTTLMS bounds how long a parked subscription is kept.
	DurableTTLMS int64            `json:"durable_ttl_ms,omitempty"`
	Filter       subscribe.Filter `json:"filter"`
	// window is the client-local stream credit window; it rides in the
	// stream-open frame itself, not the params.
	window uint64
}

// DefaultDurableTTL bounds parked subscriptions when the subscriber does
// not say.
const DefaultDurableTTL = time.Minute

// streamSink adapts an srpc server stream to the hub's Sink contract,
// translating credit exhaustion into the hub's blocked sentinel. Each
// sink owns the stream's stateful update encoder. The hub admits one
// deliverer per subscription at a time, so the sink keeps one
// WireUpdate and hands srpc its pointer instead of boxing a fresh one
// into the payload interface on every delivery.
type streamSink struct {
	st  *srpc.ServerStream
	enc subscribe.UpdateEncoder
	w   subscribe.WireUpdate
}

func newStreamSink(st *srpc.ServerStream) *streamSink {
	k := &streamSink{st: st}
	k.w.Enc = &k.enc
	return k
}

// TrySend encodes u into the connection's write buffer before it
// returns, so nothing of u is retained; the frame may wait out the
// connection's gather window for company.
func (k *streamSink) TrySend(u *subscribe.Update) error {
	k.w.U = u
	err := k.st.TrySend(&k.w)
	k.w.U = nil
	return sinkErr(err)
}

// Queue is TrySend without waking the connection's writer: the hub's
// Publish flushes after its last send.
func (k *streamSink) Queue(u *subscribe.Update) error {
	k.w.U = u
	err := k.st.Queue(&k.w)
	k.w.U = nil
	return sinkErr(err)
}

// sinkErr maps a stream send error onto the hub's Sink contract.
func sinkErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, srpc.ErrNoCredit):
		return subscribe.ErrSinkBlocked
	case errors.Is(err, srpc.ErrStreamClosed):
		return subscribe.ErrSinkClosed
	default:
		return err
	}
}

// Flush ends a publish burst: the frames Queue and TrySend queued leave
// now.
func (k *streamSink) Flush() { k.st.Flush() }

func (k *streamSink) Ready() <-chan struct{} { return k.st.Ready() }
func (k *streamSink) Done() <-chan struct{}  { return k.st.Done() }
func (k *streamSink) Close(err error)        { k.st.Close(err) }

// ServeSubscriptions exports the hub on the server's SubscribeMethod
// stream method. Each accepted open becomes a hub subscription whose
// pump pushes updates down the stream; when the stream ends (client
// close or connection loss) the subscription detaches — parking if
// durable, cancelled otherwise.
func ServeSubscriptions(server *srpc.Server, hub *subscribe.Hub) {
	srpc.HandleStreamFunc(server, SubscribeMethod, func(p subscribeParams, st *srpc.ServerStream) error {
		sink := newStreamSink(st)
		if p.Resume {
			if err := hub.Resume(p.Token, sink); err != nil {
				return err
			}
		} else {
			ttl := time.Duration(p.DurableTTLMS) * time.Millisecond
			if p.Durable && ttl <= 0 {
				ttl = DefaultDurableTTL
			}
			if err := hub.Subscribe(p.Token, p.Filter, sink, p.Durable, ttl); err != nil {
				return err
			}
		}
		// The pump watches st.Done itself and detaches on stream loss; no
		// extra watcher goroutine is needed here.
		return nil
	})
}

// SubscriberClient is the consumer half of one subscription stream.
type SubscriberClient struct {
	st    *srpc.ClientStream
	token string
	dec   subscribe.UpdateDecoder
}

// SubscribeOption configures a subscription.
type SubscribeOption func(*subscribeParams)

// WithDurable makes the subscription survive disconnects: the provider
// parks it for ttl (DefaultDurableTTL if 0) and ResumeSubscription picks
// up what it conflated meanwhile.
func WithDurable(ttl time.Duration) SubscribeOption {
	return func(p *subscribeParams) {
		p.Durable = true
		p.DurableTTLMS = ttl.Milliseconds()
	}
}

// WithWindow sets the stream credit window (frames in flight before the
// provider conflates); 0 keeps srpc.DefaultStreamWindow.
func WithWindow(n uint64) SubscribeOption {
	return func(p *subscribeParams) { p.window = n }
}

// Subscribe opens a push subscription over the client's connection. The
// returned SubscriberClient's token identifies the subscription for a
// later ResumeSubscription.
func Subscribe(c *srpc.Client, f subscribe.Filter, opts ...SubscribeOption) (*SubscriberClient, error) {
	p := subscribeParams{Token: ids.NewServiceID().String(), Filter: f}
	for _, o := range opts {
		o(&p)
	}
	st, err := c.OpenStream(SubscribeMethod, p, p.window)
	if err != nil {
		return nil, fmt.Errorf("remote: opening subscription: %w", err)
	}
	return &SubscriberClient{st: st, token: p.Token}, nil
}

// ResumeSubscription reattaches a durable subscription by token after a
// disconnect. The latest reading per sensor published while parked (and
// the count of those superseded) arrive as the first update. Once the
// park's lease has ended, the first Recv fails with
// subscribe.ErrUnknownToken: subscribe afresh.
func ResumeSubscription(c *srpc.Client, token string, opts ...SubscribeOption) (*SubscriberClient, error) {
	p := subscribeParams{Token: token, Resume: true}
	for _, o := range opts {
		o(&p)
	}
	st, err := c.OpenStream(SubscribeMethod, p, p.window)
	if err != nil {
		return nil, fmt.Errorf("remote: resuming subscription: %w", err)
	}
	return &SubscriberClient{st: st, token: token}, nil
}

// Token identifies the subscription (for ResumeSubscription).
func (sc *SubscriberClient) Token() string { return sc.token }

// subscribeSentinels are the hub's refusals a subscriber branches on
// (see sentinelErr): ErrUnknownToken means the subscription is gone and
// must be made afresh.
var subscribeSentinels = []error{subscribe.ErrUnknownToken, subscribe.ErrAlreadyAttached, subscribe.ErrDuplicateToken}

// Recv waits for the next update (timeout 0 = indefinitely). It returns
// io.EOF after an orderly provider close, an error wrapping the hub's
// sentinel when the provider refused the subscription (for one,
// subscribe.ErrUnknownToken on a resume after the park's lease ended),
// and a *srpc.RemoteError when the provider otherwise ended it.
func (sc *SubscriberClient) Recv(timeout time.Duration) (subscribe.Update, error) {
	var u subscribe.Update
	w := subscribe.WireUpdate{U: &u, Dec: &sc.dec}
	if err := sc.st.Recv(&w, timeout); err != nil {
		return subscribe.Update{}, sentinelErr(err, subscribeSentinels...)
	}
	return u, nil
}

// Close ends the subscription stream. A durable subscription parks
// provider-side; others are cancelled.
func (sc *SubscriberClient) Close() { sc.st.Close() }

var (
	_ subscribe.Sink    = (*streamSink)(nil)
	_ subscribe.Flusher = (*streamSink)(nil)
	_ subscribe.Queuer  = (*streamSink)(nil)
)
