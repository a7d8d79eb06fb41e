package registry

import (
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/wal"
)

// durableLUS recovers a lookup service from dir on a fresh fake clock.
// fsync is disabled: these tests crash by reopening the directory, so the
// page cache is always intact.
func durableLUS(t *testing.T, dir string) (*clockwork.Fake, *LookupService, *wal.Log) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	l, err := wal.Open(dir, wal.WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	lus, err := Recover("persimmon.cs.ttu.edu:4160", fc, l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		lus.Close()
		_ = l.Close()
	})
	return fc, lus, l
}

func TestRegistrationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, lus, l := durableLUS(t, dir)
	reg, err := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lus.Register(sensorItem("Oak-Sensor"), time.Minute); err != nil {
		t.Fatal(err)
	}
	lus.Close()
	_ = l.Close()

	_, re, _ := durableLUS(t, dir)
	if n := re.Len(); n != 2 {
		t.Fatalf("recovered %d registrations, want 2", n)
	}
	item, err := re.LookupOne(ByName("Neem-Sensor", "SensorDataAccessor"))
	if err != nil {
		t.Fatalf("recovered item not matchable by name+type: %v", err)
	}
	if item.ID != reg.ServiceID {
		t.Fatalf("recovered ID = %s, want %s", item.ID.Short(), reg.ServiceID.Short())
	}
	// Proxies are live objects and cannot be journaled.
	if item.Service != nil {
		t.Fatalf("recovered item has a proxy: %v", item.Service)
	}
}

func TestReregistrationRestoresProxy(t *testing.T) {
	dir := t.TempDir()
	_, lus, l := durableLUS(t, dir)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	lus.Close()
	_ = l.Close()

	_, re, _ := durableLUS(t, dir)
	// Jini restart protocol: the provider re-registers under its kept
	// ServiceID, replacing the proxy-less recovered item.
	item := sensorItem("Neem-Sensor")
	item.ID = reg.ServiceID
	if _, err := re.Register(item, time.Minute); err != nil {
		t.Fatal(err)
	}
	if n := re.Len(); n != 1 {
		t.Fatalf("re-registration duplicated the item, Len = %d", n)
	}
	got, err := re.LookupOne(ByName("Neem-Sensor"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != "Neem-Sensor" {
		t.Fatalf("proxy not restored: %v", got.Service)
	}
}

func TestDeregisteredServiceStaysGone(t *testing.T) {
	dir := t.TempDir()
	_, lus, l := durableLUS(t, dir)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	lus.Register(sensorItem("Oak-Sensor"), time.Minute)
	if err := lus.Deregister(reg.ServiceID); err != nil {
		t.Fatal(err)
	}
	lus.Close()
	_ = l.Close()

	_, re, _ := durableLUS(t, dir)
	if _, err := re.LookupOne(ByName("Neem-Sensor")); err == nil {
		t.Fatal("deregistered service resurrected")
	}
	if _, err := re.LookupOne(ByName("Oak-Sensor")); err != nil {
		t.Fatalf("surviving registration lost: %v", err)
	}
}

func TestAttributeChangesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, lus, l := durableLUS(t, dir)
	reg, _ := lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	next := attr.Set{
		attr.Name("Neem-Sensor"),
		attr.SensorType("humidity", "percent"),
	}
	if err := lus.ModifyAttributes(reg.ServiceID, next); err != nil {
		t.Fatal(err)
	}
	lus.Close()
	_ = l.Close()

	_, re, _ := durableLUS(t, dir)
	got, err := re.LookupOne(ByName("Neem-Sensor"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attributes.MatchesTemplate(attr.Set{attr.New(attr.TypeSensorType, "kind", "humidity")}) {
		t.Fatalf("modified attributes lost: %v", got.Attributes)
	}
}

// TestIntegerAttributesMatchAfterRecovery: attr canonicalizes ints to
// int64, so a recovered integer attribute must still match an int-valued
// template.
func TestIntegerAttributesMatchAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	_, lus, l := durableLUS(t, dir)
	item := sensorItem("Neem-Sensor")
	item.Attributes = append(item.Attributes, attr.New("PortInfo", "port", 4160))
	if _, err := lus.Register(item, time.Minute); err != nil {
		t.Fatal(err)
	}
	lus.Close()
	_ = l.Close()

	_, re, _ := durableLUS(t, dir)
	tmpl := Template{Attributes: attr.Set{attr.New("PortInfo", "port", 4160)}}
	if _, err := re.LookupOne(tmpl); err != nil {
		t.Fatalf("integer attribute stopped matching after recovery: %v", err)
	}
}

// TestIntegralFloatAttributeSurvivesRestart: a float64 attribute with no
// fraction keeps its kind through replay and through a checkpoint, so a
// template that pins the float still finds it.
func TestIntegralFloatAttributeSurvivesRestart(t *testing.T) {
	gain := Template{Attributes: attr.Set{attr.New("Amplifier", "gain", 2.0)}}
	for _, checkpoint := range []bool{false, true} {
		dir := t.TempDir()
		_, lus, l := durableLUS(t, dir)
		item := sensorItem("Neem-Sensor")
		item.Attributes = append(item.Attributes, attr.New("Amplifier", "gain", 2.0))
		if _, err := lus.Register(item, time.Minute); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := lus.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		lus.Close()
		_ = l.Close()

		_, re, _ := durableLUS(t, dir)
		got, err := re.LookupOne(gain)
		if err != nil {
			t.Fatalf("checkpoint=%v: float attribute stopped matching after recovery: %v", checkpoint, err)
		}
		if e, _ := got.Attributes.Find("Amplifier"); e.Fields["gain"] != 2.0 {
			t.Fatalf("checkpoint=%v: gain recovered as %#v", checkpoint, e.Fields["gain"])
		}
	}
}

func TestRegistryLeasesRebasedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	_, lus, l := durableLUS(t, dir)
	lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	lus.Close()
	_ = l.Close()

	fc, re, _ := durableLUS(t, dir)
	// Alive immediately after recovery (one fresh lease term to resume
	// renewing), gone one rebased duration later if the provider stays
	// silent.
	if n := re.Len(); n != 1 {
		t.Fatalf("Len = %d right after recovery", n)
	}
	fc.Advance(2 * time.Minute)
	if n := re.Len(); n != 0 {
		t.Fatalf("silent provider survived its rebased lease, Len = %d", n)
	}
}

func TestExpiredRegistrationStaysDeadAfterRestart(t *testing.T) {
	dir := t.TempDir()
	fc, lus, l := durableLUS(t, dir)
	lus.Register(sensorItem("Neem-Sensor"), time.Minute)
	fc.Advance(2 * time.Minute)
	lus.SweepNow() // journals the expire record
	lus.Close()
	_ = l.Close()

	_, re, _ := durableLUS(t, dir)
	if n := re.Len(); n != 0 {
		t.Fatalf("expired registration resurrected, Len = %d", n)
	}
}

func TestRegistryCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	_, lus, l := durableLUS(t, dir)
	for i := 0; i < 20; i++ {
		lus.Register(sensorItem("Sensor-"+string(rune('A'+i))), time.Minute)
	}
	if err := lus.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if l.SnapshotSeq() == 0 {
		t.Fatal("checkpoint wrote no snapshot")
	}
	lus.Register(sensorItem("Late-Sensor"), time.Minute)
	lus.Close()
	_ = l.Close()

	_, re, _ := durableLUS(t, dir)
	if n := re.Len(); n != 21 {
		t.Fatalf("recovered %d registrations, want 21", n)
	}
	if _, err := re.LookupOne(ByName("Late-Sensor")); err != nil {
		t.Fatalf("post-checkpoint registration lost: %v", err)
	}
}
