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

// ErrSinkBlocked is returned by Sink.TrySend when the consumer has no
// credit; the pump conflates until Ready fires.
var ErrSinkBlocked = errors.New("subscribe: sink out of credit")

// ErrSinkClosed is returned by Sink.TrySend after the consumer is gone.
var ErrSinkClosed = errors.New("subscribe: sink closed")

// filterProg compiles the Filter's expression predicate ("" = none).
func filterProg(f Filter) (*expr.Program, error) {
	if f.Expr == "" {
		return nil, nil
	}
	p, err := expr.Compile(f.Expr)
	if err != nil {
		return nil, errors.Join(errors.New("subscribe: bad filter expression"), err)
	}
	return p, nil
}

// matches applies the full filter chain (sensor set, min-change,
// predicate) to one reading given the last accepted value for its
// sensor.
func matches(f Filter, prog *expr.Program, r probe.Reading, last float64, haveLast bool) bool {
	if len(f.Sensors) > 0 {
		found := false
		for _, s := range f.Sensors {
			if s == r.Sensor {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if f.MinChange > 0 && haveLast {
		d := r.Value - last
		if d < 0 {
			d = -d
		}
		if d < f.MinChange {
			return false
		}
	}
	if prog != nil {
		v, err := prog.Eval(expr.Env{
			"value":  r.Value,
			"sensor": r.Sensor,
			"kind":   r.Kind,
			"unit":   r.Unit,
		})
		if err != nil {
			return false
		}
		switch t := v.(type) {
		case bool:
			return t
		case float64:
			return t != 0
		default:
			return false
		}
	}
	return true
}
