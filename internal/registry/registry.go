// Package registry implements the Jini-style lookup service (LUS) at the
// heart of the sensorcer federation. Service providers register proxies
// under interface type names and attribute entries; requestors locate them
// with templates (type + attribute match, per package attr). Registrations
// are leased: a provider that stops renewing is swept from the registry,
// which is exactly how the paper (§IV-B) keeps the sensor network "healthy
// and robust", and how services can come and go (§VII's plug-and-play).
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/wal"
)

// ServiceItem is a registered service: its identity, its proxy object (for
// in-process federations the provider itself; for remote federations an
// srpc stub), the interface type names it implements, and its attributes.
type ServiceItem struct {
	ID         ids.ServiceID
	Service    any
	Types      []string
	Attributes attr.Set
}

// Clone deep-copies the item's mutable parts (the Service proxy is shared).
func (si ServiceItem) Clone() ServiceItem {
	c := si
	c.Types = append([]string(nil), si.Types...)
	c.Attributes = attr.CloneSet(si.Attributes)
	return c
}

// Template selects services: a zero ID is a wildcard; every listed type
// must be implemented; attributes match per attr.Set.MatchesTemplate.
type Template struct {
	ID         ids.ServiceID
	Types      []string
	Attributes attr.Set
}

// Matches reports whether the item satisfies the template.
func (t Template) Matches(item ServiceItem) bool {
	if !t.ID.IsZero() && t.ID != item.ID {
		return false
	}
	for _, want := range t.Types {
		found := false
		for _, have := range item.Types {
			if want == have {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return item.Attributes.MatchesTemplate(t.Attributes)
}

// ByName builds the common "find the provider named n" template.
func ByName(name string, types ...string) Template {
	return Template{Types: types, Attributes: attr.Set{attr.Name(name)}}
}

// Registration is returned from Register; keep the lease renewed to stay in
// the registry.
type Registration struct {
	ServiceID ids.ServiceID
	Lease     lease.Lease
}

// ErrNotFound is returned by LookupOne when no item matches.
var ErrNotFound = errors.New("registry: no matching service")

// LookupService is an in-process LUS. It is safe for concurrent use.
type LookupService struct {
	id    ids.ServiceID
	name  string
	clock clockwork.Clock

	itemLeases *lease.Table

	mu      sync.RWMutex
	items   map[ids.ServiceID]*record
	byLease map[uint64]ids.ServiceID
	// byType and byField are the lookup indexes: the items implementing
	// an interface type, and the items carrying an attribute entry whose
	// field holds a value (see fieldKey). A template is served from the
	// smallest set its types and pinned fields name — find-by-name (every
	// FindAccessor, every browser read) and browse-by-location alike —
	// instead of a scan.
	byType  map[string]recordSet
	byField map[fieldKey]recordSet
	closed  bool

	// coord is the fenced single-holder ledger behind AcquireCoordination
	// (see coordination.go); created lazily on first use.
	coord       *lease.FencedTable
	coordPolicy lease.Policy

	// journal, when set, is the write-ahead log every registration change
	// is recorded in before it is acknowledged (see durable.go). Nil for
	// volatile registries. The log's lifecycle belongs to whoever opened
	// it.
	journal *wal.Log
}

// record is one live registration. Its item is never written into:
// Register stores a clone, ModifyAttributes swaps in a fresh CloneSet,
// durable replay builds fresh items and Checkpoint only reads. So an item
// copied out of a record (see LookupShared) stays intact whatever later
// happens to the registration.
type record struct {
	item    ServiceItem
	leaseID uint64
}

type recordSet map[*record]struct{}

// fieldKey names one posting set of the attribute index: the items with an
// entry of type entry whose field holds value, as attr.Normalize yields it.
type fieldKey struct {
	entry, field string
	value        attr.Value
}

// indexKey builds the key for one field of an attribute entry. Only the
// canonical scalar kinds are keyed: anything else (and NaN, which equals
// nothing) is neither indexed nor used to narrow a lookup, so Matches
// alone decides it.
func indexKey(entry, field string, v attr.Value) (fieldKey, bool) {
	v = attr.Normalize(v)
	switch x := v.(type) {
	case string, bool, int64:
	case float64:
		if x != x {
			return fieldKey{}, false
		}
	default:
		return fieldKey{}, false
	}
	return fieldKey{entry: entry, field: field, value: v}, true
}

// Option configures a LookupService.
type Option func(*config)

type config struct {
	itemPolicy  lease.Policy
	coordPolicy lease.Policy
}

// WithLeasePolicy sets the policy for registration leases.
func WithLeasePolicy(p lease.Policy) Option {
	return func(c *config) { c.itemPolicy = p }
}

// WithCoordLeasePolicy sets the policy for coordination leases (the
// single-holder fenced grants coordinator replicas compete for).
func WithCoordLeasePolicy(p lease.Policy) Option {
	return func(c *config) { c.coordPolicy = p }
}

// New creates a lookup service. name is administrative (e.g. the host:port
// string shown in the paper's Fig. 2, "persimmon.cs.ttu.edu:4160").
func New(name string, clock clockwork.Clock, opts ...Option) *LookupService {
	cfg := config{
		itemPolicy:  lease.Policy{Max: lease.DefaultMax},
		coordPolicy: lease.Policy{Max: lease.DefaultMax},
	}
	for _, o := range opts {
		o(&cfg)
	}
	l := &LookupService{
		id:          ids.NewServiceID(),
		name:        name,
		clock:       clock,
		itemLeases:  lease.NewTable(clock, cfg.itemPolicy),
		items:       make(map[ids.ServiceID]*record),
		byLease:     make(map[uint64]ids.ServiceID),
		byType:      make(map[string]recordSet),
		byField:     make(map[fieldKey]recordSet),
		coordPolicy: cfg.coordPolicy,
	}
	l.itemLeases.OnEnd(l.onItemLeaseEnd)
	return l
}

// ID returns the registrar's service ID.
func (l *LookupService) ID() ids.ServiceID { return l.id }

// Name returns the administrative name.
func (l *LookupService) Name() string { return l.name }

// Register adds (or, for an existing ID, replaces) a service item and
// grants a lease for it. A zero item ID is assigned a fresh one, which is
// reported back in the Registration — providers keep it for
// re-registration after restarts, matching Jini semantics.
func (l *LookupService) Register(item ServiceItem, leaseDur time.Duration) (Registration, error) {
	if len(item.Types) == 0 {
		return Registration{}, errors.New("registry: item must declare at least one type")
	}
	if item.ID.IsZero() {
		item.ID = ids.NewServiceID()
	}
	item = item.Clone()
	lse := l.itemLeases.Grant(leaseDur)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.itemLeases.Retire(lse.ID)
		return Registration{}, errors.New("registry: closed")
	}
	if err := l.journalLocked(regRecord{
		Op: regOpRegister, ID: item.ID, Types: item.Types,
		Attrs:   item.Attributes,
		LeaseMS: int64(leaseDur / time.Millisecond),
	}); err != nil {
		l.mu.Unlock()
		l.itemLeases.Retire(lse.ID)
		return Registration{}, err
	}
	if old, ok := l.items[item.ID]; ok {
		// Replacement: retire the old lease silently.
		delete(l.byLease, old.leaseID)
		l.itemLeases.Retire(old.leaseID)
		l.indexRemoveLocked(old)
	}
	rec := &record{item: item, leaseID: lse.ID}
	l.items[item.ID] = rec
	l.byLease[lse.ID] = item.ID
	l.indexAddLocked(rec)
	l.mu.Unlock()

	return Registration{ServiceID: item.ID, Lease: lse}, nil
}

// Deregister removes a service immediately (orderly departure).
func (l *LookupService) Deregister(id ids.ServiceID) error {
	l.mu.Lock()
	rec, ok := l.items[id]
	if !ok {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id.Short())
	}
	if err := l.journalLocked(regRecord{Op: regOpDeregister, ID: id}); err != nil {
		l.mu.Unlock()
		return err
	}
	delete(l.items, id)
	delete(l.byLease, rec.leaseID)
	l.itemLeases.Retire(rec.leaseID)
	l.indexRemoveLocked(rec)
	l.mu.Unlock()

	return nil
}

// ModifyAttributes replaces the attribute set of a registered service.
func (l *LookupService) ModifyAttributes(id ids.ServiceID, attrs attr.Set) error {
	l.mu.Lock()
	rec, ok := l.items[id]
	if !ok {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id.Short())
	}
	if err := l.journalLocked(regRecord{Op: regOpModAttrs, ID: id, Attrs: attrs}); err != nil {
		l.mu.Unlock()
		return err
	}
	l.indexRemoveLocked(rec)
	rec.item.Attributes = attr.CloneSet(attrs)
	l.indexAddLocked(rec)
	l.mu.Unlock()

	return nil
}

// Lookup returns up to maxMatches items matching the template (all if
// maxMatches <= 0), sorted by service name then ID for stable output. The
// caller owns what it gets: each item is LookupShared's, deep-copied.
func (l *LookupService) Lookup(tmpl Template, maxMatches int) []ServiceItem {
	items := l.LookupShared(tmpl, maxMatches)
	for i := range items {
		items[i] = items[i].Clone()
	}
	return items
}

// LookupShared is Lookup without the copy: the items share their types
// and attribute sets with the lookup service. That is sound because no
// stored item is ever written into (see record), and it binds the caller
// to the same rule — it serves readers such as the srpc registrar, which
// only encodes what it gets. Expired registrations are swept first.
// ID-pinned templates are a direct map hit; a template that names types
// or pins indexable attribute fields walks the smallest of their index
// sets, skips a record missing from any of the others, and leaves
// Matches only the rest to decide.
func (l *LookupService) LookupShared(tmpl Template, maxMatches int) []ServiceItem {
	l.SweepNow()
	l.mu.RLock()
	defer l.mu.RUnlock()
	// Candidates carry a precomputed name key so ordering the refs costs no
	// attribute scans per comparison. IDs compare as raw bytes, which
	// orders identically to ServiceID.String (fixed-width lowercase hex)
	// without formatting anything.
	type candidate struct {
		name string
		rec  *record
	}
	var cands []candidate
	consider := func(rec *record) {
		if tmpl.Matches(rec.item) {
			cands = append(cands, candidate{
				name: attr.NameOf(rec.item.Attributes),
				rec:  rec,
			})
		}
	}
	var buf [8]recordSet // the pinned sets: on the stack, so a miss allocates nothing
	if !tmpl.ID.IsZero() {
		// ID-pinned: at most one item can match.
		if rec, ok := l.items[tmpl.ID]; ok {
			consider(rec)
		}
	} else if sets := l.candidatesLocked(tmpl, buf[:0]); len(sets) > 0 {
	next:
		for rec := range sets[0] {
			for _, set := range sets[1:] {
				if _, ok := set[rec]; !ok {
					continue next
				}
			}
			consider(rec)
		}
	} else {
		for _, rec := range l.items {
			consider(rec)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].name != cands[j].name {
			return cands[i].name < cands[j].name
		}
		a, b := cands[i].rec.item.ID, cands[j].rec.item.ID
		return bytes.Compare(a[:], b[:]) < 0
	})
	if maxMatches > 0 && len(cands) > maxMatches {
		cands = cands[:maxMatches]
	}
	out := make([]ServiceItem, len(cands))
	for i, c := range cands {
		out[i] = c.rec.item
	}
	return out
}

// LookupOne returns the first match or ErrNotFound.
func (l *LookupService) LookupOne(tmpl Template) (ServiceItem, error) {
	matches := l.Lookup(tmpl, 1)
	if len(matches) == 0 {
		return ServiceItem{}, ErrNotFound
	}
	return matches[0], nil
}

// Items returns a snapshot of every live registration (the browser's
// service list, Fig. 2).
func (l *LookupService) Items() []ServiceItem {
	return l.Lookup(Template{}, 0)
}

// Len reports the number of live registrations.
func (l *LookupService) Len() int {
	l.SweepNow()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.items)
}

// ItemLeases is the registration-lease grantor, by which the remote
// registrar protocol (package remote) renews and cancels leases by id,
// since lease.Lease handles do not cross process boundaries.
func (l *LookupService) ItemLeases() lease.Grantor { return l.itemLeases }

// SweepNow expires lapsed registration leases immediately. Nothing sweeps
// in the background: Lookup and Len sweep before they read, and tests
// drive expiry through the fake clock and call this directly.
func (l *LookupService) SweepNow() {
	l.itemLeases.Sweep()
}

// Close shuts down the registry.
func (l *LookupService) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.items = map[ids.ServiceID]*record{}
	l.byType, l.byField = nil, nil
}

// onItemLeaseEnd removes the item whose lease expired or was cancelled,
// journaled as its expire record. An unjournaled release still removes it
// here: replay re-grants the rebased lease and the item expires again.
func (l *LookupService) onItemLeaseEnd(leaseID uint64, _ lease.Reason) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.byLease[leaseID]
	rec := l.items[id]
	if !ok || rec == nil {
		return nil
	}
	err := l.journalLocked(regRecord{Op: regOpExpire, ID: id})
	delete(l.items, id)
	delete(l.byLease, leaseID)
	l.indexRemoveLocked(rec)
	return err
}

// candidatesLocked appends to sets every index set the template pins —
// one per type and per indexable attribute field, each a superset of the
// matches — smallest first, and returns it; empty for a template that
// pins nothing. A value nothing is indexed under pins the empty set:
// nothing can match. Caller holds l.mu.
func (l *LookupService) candidatesLocked(tmpl Template, sets []recordSet) []recordSet {
	for _, typ := range tmpl.Types {
		sets = append(sets, l.byType[typ])
	}
	for _, e := range tmpl.Attributes {
		for f, v := range e.Fields {
			if key, ok := indexKey(e.Type, f, v); ok {
				sets = append(sets, l.byField[key])
			}
		}
	}
	for i := 1; i < len(sets); i++ { // insertion sort: a handful of sets
		for j := i; j > 0 && len(sets[j]) < len(sets[j-1]); j-- {
			sets[j], sets[j-1] = sets[j-1], sets[j]
		}
	}
	return sets
}

// indexAddLocked and indexRemoveLocked maintain the type and field
// indexes; caller holds l.mu. Registration pays one set insert per type
// and per attribute field.
func (l *LookupService) indexAddLocked(rec *record) {
	for _, typ := range rec.item.Types {
		indexPut(l.byType, typ, rec)
	}
	for _, e := range rec.item.Attributes {
		for f, v := range e.Fields {
			if key, ok := indexKey(e.Type, f, v); ok {
				indexPut(l.byField, key, rec)
			}
		}
	}
}

func (l *LookupService) indexRemoveLocked(rec *record) {
	for _, typ := range rec.item.Types {
		indexDrop(l.byType, typ, rec)
	}
	for _, e := range rec.item.Attributes {
		for f, v := range e.Fields {
			if key, ok := indexKey(e.Type, f, v); ok {
				indexDrop(l.byField, key, rec)
			}
		}
	}
}

func indexPut[K comparable](idx map[K]recordSet, key K, rec *record) {
	set, ok := idx[key]
	if !ok {
		set = make(recordSet, 1)
		idx[key] = set
	}
	set[rec] = struct{}{}
}

func indexDrop[K comparable](idx map[K]recordSet, key K, rec *record) {
	if set, ok := idx[key]; ok {
		delete(set, rec)
		if len(set) == 0 {
			delete(idx, key)
		}
	}
}
