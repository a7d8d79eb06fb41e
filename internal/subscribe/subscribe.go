// Package subscribe is the push-based subscription plane (ROADMAP item
// 2): instead of N clients polling one composite — N round trips and N
// expression evaluations per update — clients register a filter once and
// the provider evaluates once per upstream delta, fanning the result out
// to every matching subscriber over multiplexed srpc streams.
//
// The plane has three parts. A Source watches an upstream accessor
// (typically a CSP) and evaluates it exactly once per delta burst. The
// Hub owns the subscriber registry: each subscription carries a Filter
// (sensor set, an expr predicate, min-change and max-rate bounds) and a
// Sink the pump goroutine pushes matching Updates into. Flow control is
// the sink's: TrySend never blocks, and a sink without credit makes the
// pump conflate — latest value wins per sensor key, with a dropped
// count revealing the loss — so a stalled subscriber costs itself
// staleness, never publisher throughput or sibling delivery.
package subscribe

import (
	"errors"
	"time"

	"sensorcer/internal/expr"
	"sensorcer/internal/sensor/probe"
)

// Filter selects which readings a subscription receives and how often.
// The zero Filter matches every reading at full rate.
type Filter struct {
	// Sensors limits delivery to readings from the named sensors; empty
	// matches all.
	Sensors []string `json:"sensors,omitempty"`
	// Expr is an expression-VM predicate evaluated per candidate reading
	// with `value`, `sensor`, `kind` and `unit` bound; a falsy result
	// suppresses delivery. Empty means no predicate.
	Expr string `json:"expr,omitempty"`
	// MinChange suppresses a reading whose value moved less than this
	// from the last accepted value of the same sensor.
	MinChange float64 `json:"min_change,omitempty"`
	// MinIntervalMS paces delivery: updates are at least this many
	// milliseconds apart, intervening readings conflating to latest.
	MinIntervalMS int64 `json:"min_interval_ms,omitempty"`
}

// MinInterval returns the pacing bound as a duration.
func (f Filter) MinInterval() time.Duration {
	return time.Duration(f.MinIntervalMS) * time.Millisecond
}

// Update is one delivery to a subscriber: the readings that survived
// filtering and conflation since the previous update.
type Update struct {
	// SeqNo increases by one per update on a subscription.
	SeqNo uint64
	// Dropped counts readings lost to conflation or overflow since the
	// previous update — non-zero means the subscriber saw a gap.
	Dropped uint64
	// Readings are the surviving readings, latest per sensor, in first-
	// arrival key order.
	Readings []probe.Reading
	// ids are the hub's sensor indexes of Readings, index-aligned; nil in
	// an update no hub built. The encoder keys its meta cache on them.
	ids []int32
}

// Sink is where a subscription pushes updates — in practice an srpc
// server stream. TrySend must never block: it reports ErrSinkBlocked
// when the consumer's credit window is empty (the pump conflates and
// parks on Ready) and ErrSinkClosed once the consumer is gone.
//
// TrySend may not retain u or u.Readings after it returns: the hub is
// free to reuse both for the subscription's next update. A sink that
// needs the contents later encodes or copies them before returning.
type Sink interface {
	TrySend(u *Update) error
	// Ready is signaled when a blocked sink may accept again.
	Ready() <-chan struct{}
	// Done closes when the sink is gone.
	Done() <-chan struct{}
	// Close ends the sink from the producer side (nil = orderly).
	Close(err error)
}

// Flusher is an optional Sink capability: a sink whose TrySend only
// queues (an srpc stream shares its connection's write buffer with its
// sibling streams) implements it, and Hub.Publish calls Flush once on
// every such sink it delivered to, after the last TrySend of that
// Publish — so a fan-out burst leaves when it ends rather than when a
// timer fires. Flush must not block. A sink without it delivers on its
// own schedule.
type Flusher interface {
	Flush()
}

// Queuer is an optional Flusher capability: Queue is TrySend for a send
// its caller will flush, so it need not wake the sink's writer. Publish
// delivers inline through it and ends the burst with Flush, the burst's
// one wake-up; the pump keeps TrySend, whose frame may wait for company.
// Queue must not block.
type Queuer interface {
	Flusher
	Queue(u *Update) error
}

// ErrSinkBlocked is returned by Sink.TrySend when the consumer has no
// credit; the pump conflates until Ready fires.
var ErrSinkBlocked = errors.New("subscribe: sink out of credit")

// ErrSinkClosed is returned by Sink.TrySend after the consumer is gone.
var ErrSinkClosed = errors.New("subscribe: sink closed")

// predicate is a compiled filter expression. One that reads no
// variable but `value` is bound to expr's float path and costs no Env
// map and no boxing per reading; anything else — a predicate naming the
// reading's sensor, kind or unit — is evaluated through an Env, which
// stays the semantic reference. A predicate belongs to one subscription
// and runs under its lock: slot is the bound path's scratch.
type predicate struct {
	prog  *expr.Program
	bound *expr.BoundPredicate
	slot  [1]float64
}

// compilePredicate compiles the Filter's expression ("" = none, nil).
func compilePredicate(src string) (*predicate, error) {
	if src == "" {
		return nil, nil
	}
	p, err := expr.Compile(src)
	if err != nil {
		return nil, errors.Join(errors.New("subscribe: bad filter expression"), err)
	}
	pr := &predicate{prog: p}
	if vars := p.Vars(); len(vars) == 0 || len(vars) == 1 && vars[0] == "value" {
		// Bind resolves "values" and "value_hist" too, which a reading
		// does not carry; only a program naming nothing else binds.
		pr.bound, _ = p.BindPredicate([]string{"value"})
	}
	return pr, nil
}

// test reports whether r passes: a bool result decides, a number passes
// when non-zero, an error or any other result suppresses.
func (p *predicate) test(r probe.Reading) bool {
	if p.bound != nil {
		p.slot[0] = r.Value
		ok, err := p.bound.EvalFloats(p.slot[:], nil)
		return err == nil && ok
	}
	ok, err := p.prog.EvalPredicate(expr.Env{
		"value":  r.Value,
		"sensor": r.Sensor,
		"kind":   r.Kind,
		"unit":   r.Unit,
	})
	return err == nil && ok
}
