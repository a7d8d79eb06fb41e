package registry

import (
	"fmt"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
)

// populateLUS registers n sensors named bench-sensor-<i>. Every item
// implements the bulk accessor type; one in sixteen also implements the
// rare actuator type, so type-pinned lookups can show the index walking a
// small set instead of the full population.
func populateLUS(b *testing.B, n int) *LookupService {
	b.Helper()
	lus := New("bench:4160", clockwork.NewFake(epoch))
	b.Cleanup(lus.Close)
	for i := 0; i < n; i++ {
		item := ServiceItem{
			Service: i,
			Types:   []string{"SensorDataAccessor"},
			Attributes: attr.Set{
				attr.Name(fmt.Sprintf("bench-sensor-%d", i)),
				attr.SensorType("temperature", "celsius"),
			},
		}
		if i%16 == 0 {
			item.Types = append(item.Types, "ActuatorControl")
		}
		if _, err := lus.Register(item, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	return lus
}

// BenchmarkLookupIndexed measures the indexed lookup paths against a
// 2048-item registry: name hit and miss (field index), rare-type hit and
// absent-type miss (type index), an ID-pinned direct hit — and the
// browser's browse-by-location in the federation benchmark's shape: 1024
// items spread over 128 locations, up to 8 asked for.
func BenchmarkLookupIndexed(b *testing.B) {
	const population = 2048
	b.Run("browse-location", func(b *testing.B) {
		const items, locations = 1024, 128
		location := func(loc int) attr.Entry {
			return attr.Location(fmt.Sprintf("B%d", loc/16), fmt.Sprint(loc/4%4), fmt.Sprint(loc%4))
		}
		lus := New("bench:4160", clockwork.NewFake(epoch))
		b.Cleanup(lus.Close)
		for i := 0; i < items; i++ {
			item := ServiceItem{
				Service: i,
				Types:   []string{"SensorDataAccessor"},
				Attributes: attr.Set{
					attr.Name(fmt.Sprintf("svc-%04d", i)),
					attr.SensorType("temperature", "celsius"),
					attr.ServiceType("ELEMENTARY"),
					location(i % locations),
				},
			}
			if _, err := lus.Register(item, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tmpl := Template{Types: []string{"SensorDataAccessor"}, Attributes: attr.Set{location(i % locations)}}
			if got := lus.Lookup(tmpl, 8); len(got) != items/locations {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})
	b.Run("name-hit", func(b *testing.B) {
		lus := populateLUS(b, population)
		tmpl := ByName("bench-sensor-1024", "SensorDataAccessor")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := lus.Lookup(tmpl, 1); len(got) != 1 {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})
	b.Run("name-miss", func(b *testing.B) {
		lus := populateLUS(b, population)
		tmpl := ByName("no-such-sensor")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := lus.Lookup(tmpl, 1); len(got) != 0 {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})
	b.Run("type-hit", func(b *testing.B) {
		lus := populateLUS(b, population)
		tmpl := Template{Types: []string{"ActuatorControl"}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := lus.Lookup(tmpl, 4); len(got) != 4 {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})
	b.Run("type-miss", func(b *testing.B) {
		lus := populateLUS(b, population)
		tmpl := Template{Types: []string{"NoSuchInterface"}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := lus.Lookup(tmpl, 1); len(got) != 0 {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})
	b.Run("id-hit", func(b *testing.B) {
		lus := populateLUS(b, population)
		all := lus.Lookup(Template{Types: []string{"SensorDataAccessor"}}, 1)
		if len(all) != 1 {
			b.Fatal("no seed item")
		}
		tmpl := Template{ID: all[0].ID}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := lus.Lookup(tmpl, 1); len(got) != 1 {
				b.Fatalf("got %d matches", len(got))
			}
		}
	})
}
