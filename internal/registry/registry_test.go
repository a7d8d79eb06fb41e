package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func newLUS(t *testing.T) (*clockwork.Fake, *LookupService) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	lus := New("persimmon.cs.ttu.edu:4160", fc)
	t.Cleanup(lus.Close)
	return fc, lus
}

func sensorItem(name string) ServiceItem {
	return ServiceItem{
		Service: name, // any payload; providers use themselves
		Types:   []string{"SensorDataAccessor", "Servicer"},
		Attributes: attr.Set{
			attr.Name(name),
			attr.SensorType("temperature", "celsius"),
			attr.ServiceType("ELEMENTARY"),
		},
	}
}

func TestRegisterAndLookupByType(t *testing.T) {
	_, lus := newLUS(t)
	reg, err := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if reg.ServiceID.IsZero() {
		t.Fatal("no service ID assigned")
	}
	got := lus.Lookup(Template{Types: []string{"SensorDataAccessor"}}, 0)
	if len(got) != 1 || attr.NameOf(got[0].Attributes) != "Neem-Sensor" {
		t.Fatalf("Lookup = %v", got)
	}
}

func TestLookupByNameAndAttrs(t *testing.T) {
	_, lus := newLUS(t)
	for _, n := range []string{"Neem-Sensor", "Jade-Sensor", "Coral-Sensor", "Diamond-Sensor"} {
		if _, err := lus.Register(sensorItem(n), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	item, err := lus.LookupOne(ByName("Jade-Sensor", "SensorDataAccessor"))
	if err != nil {
		t.Fatal(err)
	}
	if attr.NameOf(item.Attributes) != "Jade-Sensor" {
		t.Fatalf("got %v", item.Attributes)
	}
	// Attribute-only template.
	tmpl := Template{Attributes: attr.Set{attr.New(attr.TypeSensorType, "kind", "temperature")}}
	if got := lus.Lookup(tmpl, 0); len(got) != 4 {
		t.Fatalf("temperature sensors = %d, want 4", len(got))
	}
	// Missing type name filters out.
	if got := lus.Lookup(Template{Types: []string{"NoSuchInterface"}}, 0); len(got) != 0 {
		t.Fatalf("bogus type matched %d", len(got))
	}
}

func TestLookupByID(t *testing.T) {
	_, lus := newLUS(t)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	lus.Register(sensorItem("Jade-Sensor"), time.Minute)
	got := lus.Lookup(Template{ID: reg.ServiceID}, 0)
	if len(got) != 1 || got[0].ID != reg.ServiceID {
		t.Fatalf("Lookup by ID = %v", got)
	}
}

func TestLookupMaxMatchesAndOrdering(t *testing.T) {
	_, lus := newLUS(t)
	for _, n := range []string{"c", "a", "b"} {
		lus.Register(sensorItem(n), time.Minute)
	}
	got := lus.Lookup(Template{}, 2)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if attr.NameOf(got[0].Attributes) != "a" || attr.NameOf(got[1].Attributes) != "b" {
		t.Fatalf("ordering wrong: %v, %v", attr.NameOf(got[0].Attributes), attr.NameOf(got[1].Attributes))
	}
}

func TestRegisterRequiresType(t *testing.T) {
	_, lus := newLUS(t)
	_, err := lus.Register(ServiceItem{Service: 1}, time.Minute)
	if err == nil {
		t.Fatal("typeless registration accepted")
	}
}

func TestReRegisterReplaces(t *testing.T) {
	_, lus := newLUS(t)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	item2 := sensorItem("Neem-Sensor")
	item2.ID = reg.ServiceID
	item2.Attributes = item2.Attributes.Replace(attr.Comment("v2"))
	if _, err := lus.Register(item2, time.Minute); err != nil {
		t.Fatal(err)
	}
	if lus.Len() != 1 {
		t.Fatalf("Len = %d after re-register, want 1", lus.Len())
	}
	got, _ := lus.LookupOne(Template{ID: reg.ServiceID})
	if _, ok := got.Attributes.Find(attr.TypeComment); !ok {
		t.Fatal("replacement did not take")
	}
	// Old lease must be dead.
	if err := reg.Lease.Renew(time.Minute); !errors.Is(err, lease.ErrUnknownLease) {
		t.Fatalf("old lease renew err = %v", err)
	}
}

func TestDeregister(t *testing.T) {
	_, lus := newLUS(t)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	if err := lus.Deregister(reg.ServiceID); err != nil {
		t.Fatal(err)
	}
	if lus.Len() != 0 {
		t.Fatal("item survived Deregister")
	}
	if err := lus.Deregister(reg.ServiceID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Deregister err = %v", err)
	}
}

func TestLeaseExpirySweepsItem(t *testing.T) {
	fc, lus := newLUS(t)
	lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	fc.Advance(30 * time.Second)
	if lus.Len() != 1 {
		t.Fatal("item expired early")
	}
	fc.Advance(31 * time.Second)
	if lus.Len() != 0 {
		t.Fatal("expired item still present")
	}
}

func TestLeaseRenewalKeepsItem(t *testing.T) {
	fc, lus := newLUS(t)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	for i := 0; i < 5; i++ {
		fc.Advance(45 * time.Second)
		if err := reg.Lease.Renew(time.Minute); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if lus.Len() != 1 {
		t.Fatal("renewed item was swept")
	}
}

func TestModifyAttributes(t *testing.T) {
	_, lus := newLUS(t)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	newAttrs := attr.Set{attr.Name("Neem-Sensor"), attr.ServiceType("COMPOSITE")}
	if err := lus.ModifyAttributes(reg.ServiceID, newAttrs); err != nil {
		t.Fatal(err)
	}
	item, _ := lus.LookupOne(Template{ID: reg.ServiceID})
	e, _ := item.Attributes.Find(attr.TypeServiceType)
	if v, _ := e.Get("category"); v != "COMPOSITE" {
		t.Fatalf("category = %v", v)
	}
	if err := lus.ModifyAttributes(ids.NewServiceID(), newAttrs); !errors.Is(err, ErrNotFound) {
		t.Fatalf("modify unknown err = %v", err)
	}
}

func TestClosedRegistryRejects(t *testing.T) {
	_, lus := newLUS(t)
	lus.Close()
	if _, err := lus.Register(sensorItem("A"), time.Minute); err == nil {
		t.Fatal("register on closed registry accepted")
	}
	lus.Close() // idempotent
}

// TestLeaseEndAfterClose: a registration lease that ends after Close —
// cancelled by its holder or expired under a late sweep — releases
// nothing and does not panic on the emptied registry.
func TestLeaseEndAfterClose(t *testing.T) {
	fc, lus := newLUS(t)
	a, err := lus.Register(sensorItem("A"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lus.Register(sensorItem("B"), time.Minute); err != nil {
		t.Fatal(err)
	}
	lus.Close()
	if err := a.Lease.Cancel(); err != nil {
		t.Fatalf("Cancel after Close: %v", err)
	}
	fc.Advance(time.Hour)
	lus.SweepNow()
	if n := lus.Len(); n != 0 {
		t.Fatalf("Len = %d after Close", n)
	}
}

func TestLookupOneNotFound(t *testing.T) {
	_, lus := newLUS(t)
	if _, err := lus.LookupOne(ByName("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentRegisterLookup(t *testing.T) {
	_, lus := newLUS(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				item := sensorItem(fmt.Sprintf("sensor-%d-%d", g, i))
				if _, err := lus.Register(item, time.Minute); err != nil {
					t.Error(err)
					return
				}
				lus.Lookup(Template{Types: []string{"SensorDataAccessor"}}, 10)
			}
		}(g)
	}
	wg.Wait()
	if lus.Len() != 400 {
		t.Fatalf("Len = %d, want 400", lus.Len())
	}
}

func TestLookupReturnsClones(t *testing.T) {
	_, lus := newLUS(t)
	lus.Register(sensorItem("A"), time.Minute)
	got := lus.Lookup(Template{}, 0)
	got[0].Attributes[0].Fields["name"] = "tampered"
	again, _ := lus.LookupOne(Template{})
	if attr.NameOf(again.Attributes) != "A" {
		t.Fatal("Lookup leaked internal state")
	}
}

// Property: after registering N uniquely named services, each is findable
// by name and the total count is N.
func TestPropertyRegisterLookupComplete(t *testing.T) {
	f := func(seed uint8) bool {
		fc := clockwork.NewFake(epoch)
		lus := New("test", fc)
		defer lus.Close()
		n := int(seed%16) + 1
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("s%d", i)
			if _, err := lus.Register(sensorItem(name), time.Minute); err != nil {
				return false
			}
		}
		if lus.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if _, err := lus.LookupOne(ByName(fmt.Sprintf("s%d", i))); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateMatchesDirect(t *testing.T) {
	item := sensorItem("X")
	item.ID = ids.NewServiceID()
	if !(Template{}).Matches(item) {
		t.Fatal("empty template must match")
	}
	if (Template{ID: ids.NewServiceID()}).Matches(item) {
		t.Fatal("foreign ID matched")
	}
	if !(Template{ID: item.ID, Types: []string{"Servicer"}}).Matches(item) {
		t.Fatal("exact template failed")
	}
}

func TestNameIndexConsistency(t *testing.T) {
	_, lus := newLUS(t)
	reg, _ := lus.Register(sensorItem("Indexed"), time.Minute)
	// Index-served lookup agrees with full scan.
	byName := lus.Lookup(ByName("Indexed"), 0)
	byScan := lus.Lookup(Template{Types: []string{"SensorDataAccessor"}}, 0)
	if len(byName) != 1 || len(byScan) != 1 || byName[0].ID != byScan[0].ID {
		t.Fatalf("index/scan disagree: %v vs %v", byName, byScan)
	}
	// Rename via ModifyAttributes moves the index entry.
	lus.ModifyAttributes(reg.ServiceID, attr.Set{attr.Name("Renamed")})
	if got := lus.Lookup(ByName("Indexed"), 0); len(got) != 0 {
		t.Fatal("old name still resolves after rename")
	}
	if _, err := lus.LookupOne(ByName("Renamed")); err != nil {
		t.Fatal("new name does not resolve")
	}
	// Deregistration clears the index.
	lus.Deregister(reg.ServiceID)
	if got := lus.Lookup(ByName("Renamed"), 0); len(got) != 0 {
		t.Fatal("index entry survived deregistration")
	}
}

func TestNameIndexWithDuplicateNames(t *testing.T) {
	// Two distinct services may share a name (different hosts); the
	// index must return both, and removing one must keep the other.
	_, lus := newLUS(t)
	r1, _ := lus.Register(sensorItem("Twin"), time.Minute)
	lus.Register(sensorItem("Twin"), time.Minute)
	if got := lus.Lookup(ByName("Twin"), 0); len(got) != 2 {
		t.Fatalf("Lookup = %d, want 2", len(got))
	}
	lus.Deregister(r1.ServiceID)
	if got := lus.Lookup(ByName("Twin"), 0); len(got) != 1 {
		t.Fatalf("Lookup after one departure = %d, want 1", len(got))
	}
}

func TestNameIndexAfterLeaseExpiry(t *testing.T) {
	fc, lus := newLUS(t)
	lus.Register(sensorItem("Fleeting"), time.Minute)
	fc.Advance(2 * time.Minute)
	lus.SweepNow()
	if got := lus.Lookup(ByName("Fleeting"), 0); len(got) != 0 {
		t.Fatal("index entry survived lease expiry")
	}
}

func TestNamePinnedTemplateStillAppliesOtherConstraints(t *testing.T) {
	_, lus := newLUS(t)
	lus.Register(sensorItem("Constrained"), time.Minute)
	// Name matches but the type constraint does not.
	tmpl := Template{Types: []string{"NoSuchType"}, Attributes: attr.Set{attr.Name("Constrained")}}
	if got := lus.Lookup(tmpl, 0); len(got) != 0 {
		t.Fatal("index bypassed the type constraint")
	}
	// Name matches but another attribute does not.
	tmpl2 := ByName("Constrained")
	tmpl2.Attributes = tmpl2.Attributes.Replace(attr.New(attr.TypeSensorType, "kind", "humidity"))
	if got := lus.Lookup(tmpl2, 0); len(got) != 0 {
		t.Fatal("index bypassed the attribute constraint")
	}
}

// Property: after an arbitrary mix of registrations and deregistrations,
// index-served name lookups agree exactly with a brute-force scan.
func TestPropertyIndexMatchesScan(t *testing.T) {
	f := func(ops []uint8) bool {
		fc := clockwork.NewFake(epoch)
		lus := New("t", fc)
		defer lus.Close()
		names := []string{"alpha", "beta", "gamma"}
		var live []Registration
		for _, op := range ops {
			name := names[int(op)%len(names)]
			switch (op / 8) % 3 {
			case 0, 1: // register (biased toward growth)
				reg, err := lus.Register(sensorItem(name), time.Minute)
				if err != nil {
					return false
				}
				live = append(live, reg)
			case 2: // deregister the oldest live registration
				if len(live) > 0 {
					lus.Deregister(live[0].ServiceID)
					live = live[1:]
				}
			}
		}
		all := lus.Items()
		for _, name := range names {
			indexed := lus.Lookup(ByName(name), 0)
			want := 0
			for _, item := range all {
				if attr.NameOf(item.Attributes) == name {
					want++
				}
			}
			if len(indexed) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelLeavesNothingBehind: a holder's Cancel takes the item out of
// the item table, the lease index and both lookup indexes, not only out
// of Len.
func TestCancelLeavesNothingBehind(t *testing.T) {
	_, lus := newLUS(t)
	kept, err := lus.Register(sensorItem("kept"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gone := sensorItem("gone")
	gone.Types = append(gone.Types, "Camera")
	gone.Attributes = append(gone.Attributes, attr.Location("b", "1", "r"))
	reg, err := lus.Register(gone, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Lease.Cancel(); err != nil {
		t.Fatal(err)
	}
	lus.mu.RLock()
	defer lus.mu.RUnlock()
	rec := lus.items[kept.ServiceID]
	if rec == nil || len(lus.items) != 1 {
		t.Fatalf("%d items after cancel, want only %v", len(lus.items), kept.ServiceID)
	}
	if id, ok := lus.byLease[kept.Lease.ID]; !ok || id != kept.ServiceID || len(lus.byLease) != 1 {
		t.Fatalf("lease index after cancel = %v, want only lease %d", lus.byLease, kept.Lease.ID)
	}
	var sets []recordSet
	for _, set := range lus.byType {
		sets = append(sets, set)
	}
	types := len(sets)
	for _, set := range lus.byField {
		sets = append(sets, set)
	}
	// The kept item has two types and four indexed fields: name, kind,
	// unit and category.
	if types != 2 || len(sets)-types != 4 {
		t.Fatalf("indexes hold %d type and %d field sets after cancel, want 2 and 4", types, len(sets)-types)
	}
	for _, set := range sets {
		if _, ok := set[rec]; !ok || len(set) != 1 {
			t.Fatalf("an index set of %d holds more than the kept item", len(set))
		}
	}
}
