package registry

import (
	"errors"
	"fmt"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/wal"
	"sensorcer/internal/wire"
)

// Journal operation tags (on-disk format; append only).
const (
	regOpRegister   byte = 1
	regOpDeregister byte = 2
	regOpModAttrs   byte = 3
	regOpExpire     byte = 4
)

// regRecord is one registry journal entry. Service proxies are live
// objects and are deliberately NOT journaled: a recovered item carries a
// nil Service until its provider re-registers under the same ServiceID
// (the Jini restart protocol), at which point Register replaces the whole
// item.
//
// On disk a record is, in wire binary, op | id | types (attr.AppendTypes)
// | attributes (attr.AppendSet) | leaseMS (svarint); a snapshot is a
// uvarint count of register records. Attribute values keep their Go kinds,
// so an integral float64 recovers as a float64 and an int64 as an int64.
type regRecord struct {
	Op      byte
	ID      ids.ServiceID
	Types   []string
	Attrs   attr.Set
	LeaseMS int64
}

var errMalformed = errors.New("registry: malformed journal payload")

func appendRegRecord(b []byte, rec *regRecord) ([]byte, error) {
	b = append(b, rec.Op)
	b = append(b, rec.ID[:]...)
	b = attr.AppendTypes(b, rec.Types)
	b, err := attr.AppendSet(b, rec.Attrs)
	if err != nil {
		return b, err
	}
	return wire.AppendSvarint(b, rec.LeaseMS), nil
}

func consumeRegRecord(b []byte) (regRecord, []byte, error) {
	var rec regRecord
	if len(b) < 1+len(rec.ID) {
		return rec, b, errMalformed
	}
	rec.Op = b[0]
	if rec.Op < regOpRegister || rec.Op > regOpExpire {
		return rec, b, fmt.Errorf("registry: unknown journal op %d", rec.Op)
	}
	b = b[1+copy(rec.ID[:], b[1:]):]
	var ok bool
	if rec.Types, b, ok = attr.ConsumeTypes(b); !ok {
		return rec, b, errMalformed
	}
	if rec.Attrs, b, ok = attr.ConsumeSet(b); !ok {
		return rec, b, errMalformed
	}
	if rec.LeaseMS, b, ok = wire.ConsumeSvarint(b); !ok {
		return rec, b, errMalformed
	}
	return rec, b, nil
}

// decodeRegRecord parses one journal record, which must fill the payload.
func decodeRegRecord(b []byte) (regRecord, error) {
	rec, rest, err := consumeRegRecord(b)
	if err == nil && len(rest) != 0 {
		err = errMalformed
	}
	return rec, err
}

func appendRegSnapshot(b []byte, items []regRecord) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(items)))
	var err error
	for i := range items {
		if b, err = appendRegRecord(b, &items[i]); err != nil {
			return b, err
		}
	}
	return b, nil
}

// decodeRegSnapshot parses a checkpoint: register records only.
func decodeRegSnapshot(b []byte) ([]regRecord, error) {
	n, b, ok := wire.ConsumeUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, errMalformed
	}
	items := make([]regRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		rec, rest, err := consumeRegRecord(b)
		if err != nil {
			return nil, err
		}
		if rec.Op != regOpRegister {
			return nil, errMalformed
		}
		items = append(items, rec)
		b = rest
	}
	if len(b) != 0 {
		return nil, errMalformed
	}
	return items, nil
}

// journalLocked appends a record to the journal (no-op for volatile
// registries). Callers hold l.mu for writing. An error means the record
// is not durable: the caller must not apply the operation.
func (l *LookupService) journalLocked(rec regRecord) error {
	if l.journal == nil {
		return nil
	}
	b, err := appendRegRecord(nil, &rec)
	if err != nil {
		return fmt.Errorf("registry: encoding journal record: %w", err)
	}
	if _, err := l.journal.Append(b); err != nil {
		return fmt.Errorf("registry: journaling op %d: %w", rec.Op, err)
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
		items, err := decodeRegSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("registry: decoding snapshot: %w", err)
		}
		for i := range items {
			live[items[i].ID] = &items[i]
		}
	}

	err := log.Replay(func(_ uint64, payload []byte) error {
		rec, err := decodeRegRecord(payload)
		if err != nil {
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
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for id, it := range live {
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
	var items []regRecord
	for id, rec := range l.items {
		exp, ok := l.itemLeases.Expiration(rec.leaseID)
		if !ok {
			continue // lapsed but not yet swept
		}
		items = append(items, regRecord{
			Op:      regOpRegister,
			ID:      id,
			Types:   rec.item.Types,
			Attrs:   rec.item.Attributes,
			LeaseMS: int64(exp.Sub(now) / time.Millisecond),
		})
	}
	data, err := appendRegSnapshot(nil, items)
	if err != nil {
		return fmt.Errorf("registry: encoding snapshot: %w", err)
	}
	if err := l.journal.WriteSnapshot(data); err != nil {
		return fmt.Errorf("registry: checkpoint: %w", err)
	}
	return nil
}
