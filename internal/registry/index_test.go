package registry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/wal"
)

// Differential test of the lookup indexes: under a seeded mix of
// registrations, replacements, attribute changes, departures, lease
// expiries and (for a durable registry) a close-and-recover, every
// template must be answered exactly as a brute-force Template.Matches
// over Items() answers it — same items, same order, same maxMatches cut —
// and once the registry is empty no index entry may be left behind.

var (
	diffTypes     = []string{"SensorDataAccessor", "ActuatorControl", "Servicer"}
	diffNames     = []string{"Neem", "Jade", "Coral", ""}
	diffBuildings = []string{"CP TTU", "EC", "Library"}
	diffFloors    = []string{"1", "3"}
	diffRooms     = []string{"310", "101", "B2"}
)

func pick(rng *rand.Rand, from []string) string { return from[rng.Intn(len(from))] }

// diffNumber gives a small whole number in one of the kinds a caller may
// hand in; matching normalizes int and int64 alike and keeps float64
// apart, and the index must agree.
func diffNumber(rng *rand.Rand) attr.Value {
	n := rng.Intn(3)
	switch rng.Intn(4) {
	case 0:
		return n // un-normalized int: built below without attr.New
	case 1:
		return int64(n)
	case 2:
		return float64(n)
	default:
		return float64(n) + 0.5
	}
}

// diffOddValue is a value the index does not key: NaN equals nothing, and
// int8 is comparable but not a canonical kind.
func diffOddValue(rng *rand.Rand) attr.Value {
	if rng.Intn(2) == 0 {
		return math.NaN()
	}
	return int8(rng.Intn(2))
}

func diffItem(rng *rand.Rand) ServiceItem {
	item := ServiceItem{Service: "proxy"}
	for _, typ := range diffTypes {
		if rng.Intn(2) == 0 {
			item.Types = append(item.Types, typ)
		}
	}
	if len(item.Types) == 0 {
		item.Types = []string{pick(rng, diffTypes)}
	}
	if name := pick(rng, diffNames); name != "" || rng.Intn(2) == 0 {
		item.Attributes = append(item.Attributes, attr.Name(name))
	}
	for n := rng.Intn(3); n > 0; n-- { // zero, one or two Location entries
		item.Attributes = append(item.Attributes,
			attr.Location(pick(rng, diffBuildings), pick(rng, diffFloors), pick(rng, diffRooms)))
	}
	if rng.Intn(2) == 0 {
		rack := attr.Entry{Type: "Rack", Fields: map[string]attr.Value{"unit": diffNumber(rng), "load": diffNumber(rng)}}
		if rng.Intn(3) == 0 {
			rack.Fields["odd"] = diffOddValue(rng)
		}
		item.Attributes = append(item.Attributes, rack)
	}
	return item
}

func diffTemplate(rng *rand.Rand, live []ids.ServiceID) Template {
	var tmpl Template
	switch rng.Intn(8) {
	case 0:
		return tmpl // empty: everything
	case 1:
		if len(live) > 0 {
			tmpl.ID = live[rng.Intn(len(live))]
		} else {
			tmpl.ID = ids.NewServiceID()
		}
		if rng.Intn(2) == 0 {
			return tmpl
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		tmpl.Types = append(tmpl.Types, pick(rng, append(diffTypes, "NoSuchInterface")))
	}
	for n := rng.Intn(3); n > 0; n-- {
		e := attr.Entry{Fields: map[string]attr.Value{}}
		switch rng.Intn(4) {
		case 0:
			e.Type = attr.TypeName
			e.Fields["name"] = pick(rng, append(diffNames, "Ghost"))
		case 1, 2: // a partial Location: any subset of its fields, down to none
			e.Type = attr.TypeLocation
			if rng.Intn(2) == 0 {
				e.Fields["building"] = pick(rng, append(diffBuildings, "Nowhere"))
			}
			if rng.Intn(2) == 0 {
				e.Fields["floor"] = pick(rng, diffFloors)
			}
			if rng.Intn(2) == 0 {
				e.Fields["room"] = pick(rng, diffRooms)
			}
		case 3:
			e.Type = "Rack"
			if rng.Intn(2) == 0 {
				e.Fields["unit"] = diffNumber(rng)
			}
			if rng.Intn(2) == 0 {
				e.Fields["load"] = diffNumber(rng)
			}
			if rng.Intn(4) == 0 {
				e.Fields["odd"] = diffOddValue(rng)
			}
		}
		tmpl.Attributes = append(tmpl.Attributes, e)
	}
	return tmpl
}

// checkLookups compares indexed lookups, copied and shared, against the
// brute-force answer.
func checkLookups(t *testing.T, rng *rand.Rand, lus *LookupService, step string) {
	t.Helper()
	all := lus.Items() // an empty template is a full scan, sorted
	live := make([]ids.ServiceID, len(all))
	for i, item := range all {
		live[i] = item.ID
	}
	for n := 0; n < 12; n++ {
		tmpl := diffTemplate(rng, live)
		max := []int{0, 0, 1, 3, 8}[rng.Intn(5)]
		var want []ids.ServiceID
		for _, item := range all {
			if tmpl.Matches(item) && (max <= 0 || len(want) < max) {
				want = append(want, item.ID)
			}
		}
		got := lus.Lookup(tmpl, max)
		shared := lus.LookupShared(tmpl, max)
		same := len(got) == len(want) && len(shared) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i].ID == want[i] && shared[i].ID == want[i]
		}
		if !same {
			gotIDs := make([]string, len(got))
			for i, item := range got {
				gotIDs[i] = item.ID.Short()
			}
			t.Fatalf("%s: Lookup(%+v, %d) = %v, brute force over %d items wants %v",
				step, tmpl, max, gotIDs, len(all), want)
		}
	}
}

func runLookupDifferential(t *testing.T, seed int64, durable bool) {
	rng := rand.New(rand.NewSource(seed))
	fc := clockwork.NewFake(epoch)
	var lus *LookupService
	var log *wal.Log
	dir := t.TempDir()
	open := func() {
		if !durable {
			lus = New("diff", fc)
			return
		}
		var err error
		if log, err = wal.Open(dir, wal.WithSyncEveryAppend(false)); err != nil {
			t.Fatal(err)
		}
		if lus, err = Recover("diff", fc, log); err != nil {
			t.Fatal(err)
		}
	}
	shut := func() {
		lus.Close()
		if log != nil {
			_ = log.Close()
		}
	}
	open()
	defer func() { shut() }()

	var known []ids.ServiceID // every ID ever registered; some are long gone
	someID := func() ids.ServiceID {
		if len(known) == 0 {
			return ids.NewServiceID()
		}
		return known[rng.Intn(len(known))]
	}
	const steps = 150
	recovered := false
	for i := 0; i < steps; i++ {
		var step string
		switch op := rng.Intn(10); {
		case op < 4: // register, with a lease that may lapse within the run
			item := diffItem(rng)
			if rng.Intn(4) == 0 {
				item.ID = someID() // replaces it if still registered
			}
			lease := time.Hour
			if rng.Intn(3) == 0 {
				lease = 30 * time.Second
			}
			reg, err := lus.Register(item, lease)
			if err != nil {
				t.Fatal(err)
			}
			known = append(known, reg.ServiceID)
			step = "register"
		case op < 6:
			_ = lus.ModifyAttributes(someID(), diffItem(rng).Attributes)
			step = "modify"
		case op < 8:
			_ = lus.Deregister(someID())
			step = "deregister"
		case op < 9:
			fc.Advance(20 * time.Second)
			step = "expiry"
		default:
			if durable && !recovered && i > steps/3 {
				shut()
				open()
				recovered = true
				step = "recover"
			}
		}
		checkLookups(t, rng, lus, fmt.Sprintf("seed %d step %d (%s)", seed, i, step))
	}

	// Half leaves in an orderly way, the rest by lease expiry.
	for i, item := range lus.Items() {
		if i%2 == 0 {
			if err := lus.Deregister(item.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	fc.Advance(2 * time.Hour)
	if n := lus.Len(); n != 0 {
		t.Fatalf("seed %d: %d items outlived their leases", seed, n)
	}
	lus.mu.RLock()
	defer lus.mu.RUnlock()
	if len(lus.byType) != 0 || len(lus.byField) != 0 {
		t.Fatalf("seed %d: index entries outlived their items: byType=%v byField=%v", seed, lus.byType, lus.byField)
	}
}

func TestIndexedLookupMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		runLookupDifferential(t, seed, false)
		runLookupDifferential(t, seed, true)
	}
}

// Property: over random populations — items with up to two Location
// entries, numeric and unindexable Rack fields — random templates and
// maxMatches, the intersected index walk answers exactly as a brute-force
// Template.Matches scan of Items() does, order included.
func TestPropertyIntersectedLookupMatchesScan(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lus := New("prop", clockwork.NewFake(epoch))
		defer lus.Close()
		for n := int(size % 64); n > 0; n-- {
			if _, err := lus.Register(diffItem(rng), time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		checkLookups(t, rng, lus, fmt.Sprintf("seed %d size %d", seed, size%64))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An item whose pinned fields are spread over two entries of one type sits
// in every posting set the template names, yet no single entry matches it:
// the intersection narrows, Matches decides.
func TestSplitEntryItemDoesNotMatch(t *testing.T) {
	_, lus := newLUS(t)
	split := ServiceItem{
		Types:      []string{"SensorDataAccessor"},
		Attributes: attr.Set{attr.Location("B1", "0", "0"), attr.Location("B2", "1", "1")},
	}
	if _, err := lus.Register(split, time.Minute); err != nil {
		t.Fatal(err)
	}
	tmpl := Template{Attributes: attr.Set{attr.Location("B1", "1", "1")}}
	lus.mu.RLock()
	sets := lus.candidatesLocked(tmpl, nil)
	lus.mu.RUnlock()
	if len(sets) != 3 {
		t.Fatalf("template pins %d sets, want 3", len(sets))
	}
	for _, set := range sets {
		if len(set) != 1 {
			t.Fatalf("split item missing from a pinned set: %d", len(set))
		}
	}
	if got := lus.Lookup(tmpl, 0); len(got) != 0 {
		t.Fatalf("split item matched Location(B1,1,1): %v", got)
	}
	if got := lus.Lookup(Template{Attributes: attr.Set{attr.Location("B2", "1", "1")}}, 0); len(got) != 1 {
		t.Fatalf("whole entry Location(B2,1,1) found %d items, want 1", len(got))
	}
}

// An item from LookupShared keeps what it had however its registration
// later changes or ends: nothing writes into a stored item.
func TestSharedLookupSurvivesWrites(t *testing.T) {
	fc, lus := newLUS(t)
	reg, err := lus.Register(sensorItem("Shared"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	shared := lus.LookupShared(ByName("Shared"), 0)
	if len(shared) != 1 {
		t.Fatalf("LookupShared found %d items", len(shared))
	}
	held, want := shared[0], shared[0].Clone()
	check := func(after string) {
		t.Helper()
		if !reflect.DeepEqual(held, want) {
			t.Fatalf("after %s the shared item changed: %+v, want %+v", after, held, want)
		}
	}
	id := reg.ServiceID
	if err := lus.ModifyAttributes(id, attr.Set{attr.Name("Renamed"), attr.Comment("moved"), attr.ServiceType("COMPOSITE")}); err != nil {
		t.Fatal(err)
	}
	check("ModifyAttributes")
	again := sensorItem("Replaced")
	again.ID, again.Types = id, []string{"Servicer"}
	if _, err := lus.Register(again, time.Minute); err != nil {
		t.Fatal(err)
	}
	check("re-Register")
	if err := lus.Deregister(id); err != nil {
		t.Fatal(err)
	}
	check("Deregister")

	if _, err := lus.Register(sensorItem("Fleeting"), time.Minute); err != nil {
		t.Fatal(err)
	}
	fleeting := lus.LookupShared(ByName("Fleeting"), 0)
	if len(fleeting) != 1 {
		t.Fatalf("LookupShared found %d items", len(fleeting))
	}
	held, want = fleeting[0], fleeting[0].Clone()
	fc.Advance(2 * time.Minute)
	lus.SweepNow()
	if lus.Len() != 0 {
		t.Fatal("lease did not expire")
	}
	check("lease expiry")
}
