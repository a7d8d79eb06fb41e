package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/wal"
)

// Journal operation tags (on-disk format).
const (
	regOpRegister   = "register"
	regOpDeregister = "deregister"
	regOpModAttrs   = "modattrs"
	regOpExpire     = "expire"
)

// regRecord is one registry journal entry. Service proxies are live
// objects and are deliberately NOT journaled: a recovered item carries a
// nil Service until its provider re-registers under the same ServiceID
// (the Jini restart protocol), at which point Register replaces the whole
// item.
type regRecord struct {
	Op      string        `json:"op"`
	ID      ids.ServiceID `json:"id,omitempty"`
	Types   []string      `json:"types,omitempty"`
	Attrs   attr.Set      `json:"attrs,omitempty"`
	LeaseMS int64         `json:"leaseMs,omitempty"`
}

// registrySnapshot is the checkpoint format. LeaseMS is the lease time
// remaining at checkpoint, rebased onto the recovery clock.
type registrySnapshot struct {
	Items []regRecord `json:"items"`
}

// journalLocked appends a record to the journal (no-op for volatile
// registries). Callers hold l.mu for writing. An error means the record
// is not durable: the caller must not apply the operation.
func (l *LookupService) journalLocked(rec regRecord) error {
	if l.journal == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("registry: encoding journal record: %w", err)
	}
	if _, err := l.journal.Append(b); err != nil {
		return fmt.Errorf("registry: journaling %s: %w", rec.Op, err)
	}
	return nil
}

// decodeRegJSON unmarshals registry journal payloads preserving integer
// attribute values: package attr canonicalizes ints to int64, and a plain
// json.Unmarshal would return them as float64, silently breaking template
// matches after recovery. Numbers without a fraction or exponent decode as
// int64 (integral float64 attributes therefore also recover as int64 — an
// accepted fidelity loss, documented in DESIGN.md §8).
func decodeRegJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// fixNumbers converts json.Number values left by decodeRegJSON into the
// attr-canonical int64/float64 kinds, in place.
func fixNumbers(attrs attr.Set) error {
	for _, e := range attrs {
		for k, v := range e.Fields {
			num, ok := v.(json.Number)
			if !ok {
				continue
			}
			s := num.String()
			if strings.ContainsAny(s, ".eE") {
				f, err := num.Float64()
				if err != nil {
					return fmt.Errorf("registry: attribute %s.%s: %w", e.Type, k, err)
				}
				e.Fields[k] = f
				continue
			}
			i, err := num.Int64()
			if err != nil {
				return fmt.Errorf("registry: attribute %s.%s: %w", e.Type, k, err)
			}
			e.Fields[k] = i
		}
	}
	return nil
}

// Recover opens a durable lookup service backed by log: it loads the
// latest snapshot, replays the records after it, and attaches the log so
// every subsequent registration change is journaled before it is
// acknowledged.
//
// Registration leases are rebased onto the recovery clock: an item
// registered with lease duration d (or holding d-remaining at the last
// checkpoint) gets a fresh grant of d from now, so providers have one full
// lease term after a registry restart to resume renewing — or re-register
// — before they are swept. Recovered items have a nil Service proxy until
// their provider re-registers.
func Recover(name string, clock clockwork.Clock, log *wal.Log, opts ...Option) (*LookupService, error) {
	l := New(name, clock, opts...)
	live := make(map[ids.ServiceID]*regRecord)

	if data, _, _, ok := log.Snapshot(); ok {
		var snap registrySnapshot
		if err := decodeRegJSON(data, &snap); err != nil {
			return nil, fmt.Errorf("registry: decoding snapshot: %w", err)
		}
		for i := range snap.Items {
			it := snap.Items[i]
			live[it.ID] = &it
		}
	}

	err := log.Replay(func(_ uint64, payload []byte) error {
		var rec regRecord
		if err := decodeRegJSON(payload, &rec); err != nil {
			return fmt.Errorf("registry: decoding journal record: %w", err)
		}
		switch rec.Op {
		case regOpRegister:
			live[rec.ID] = &rec
		case regOpDeregister, regOpExpire:
			delete(live, rec.ID)
		case regOpModAttrs:
			if it, ok := live[rec.ID]; ok {
				it.Attrs = rec.Attrs
			}
		default:
			return fmt.Errorf("registry: unknown journal op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for id, it := range live {
		if err := fixNumbers(it.Attrs); err != nil {
			return nil, err
		}
		lse := l.itemLeases.Grant(time.Duration(it.LeaseMS) * time.Millisecond)
		item := ServiceItem{ID: id, Types: it.Types, Attributes: it.Attrs}
		rec := &record{item: item, leaseID: lse.ID}
		l.items[id] = rec
		l.byLease[lse.ID] = id
		l.indexAddLocked(rec)
	}
	l.journal = log
	return l, nil
}

// Checkpoint writes a snapshot of the live registrations to the journal
// and compacts it, bounding recovery time. Volatile registries return nil.
func (l *LookupService) Checkpoint() error {
	if l.journal == nil {
		return nil
	}
	l.itemLeases.Sweep()
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock.Now()
	var snap registrySnapshot
	for id, rec := range l.items {
		exp, ok := l.itemLeases.Expiration(rec.leaseID)
		if !ok {
			continue // lapsed but not yet swept
		}
		snap.Items = append(snap.Items, regRecord{
			ID:      id,
			Types:   rec.item.Types,
			Attrs:   rec.item.Attributes,
			LeaseMS: int64(exp.Sub(now) / time.Millisecond),
		})
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("registry: encoding snapshot: %w", err)
	}
	if err := l.journal.WriteSnapshot(data); err != nil {
		return fmt.Errorf("registry: checkpoint: %w", err)
	}
	return nil
}
