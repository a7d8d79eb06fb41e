package sensor

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/event"
	"sensorcer/internal/registry"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/spot"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func replayESP(name string, series ...float64) *ESP {
	return NewESP(name, probe.NewReplayProbe(name, "temperature", "celsius", series, true, nil))
}

func TestRingStoreBasics(t *testing.T) {
	s := NewRingStore(3)
	if _, ok := s.Latest(); ok {
		t.Fatal("empty store reported latest")
	}
	for i := 1; i <= 5; i++ {
		s.Add(probe.Reading{Value: float64(i)})
	}
	if s.Len() != 3 || s.Total() != 5 {
		t.Fatalf("Len=%d Total=%d", s.Len(), s.Total())
	}
	latest, _ := s.Latest()
	if latest.Value != 5 {
		t.Fatalf("latest = %v", latest.Value)
	}
	last := s.LastN(0)
	if len(last) != 3 || last[0].Value != 3 || last[2].Value != 5 {
		t.Fatalf("LastN = %v", last)
	}
	if got := s.LastN(2); len(got) != 2 || got[0].Value != 4 {
		t.Fatalf("LastN(2) = %v", got)
	}
	if NewRingStore(0).buf == nil {
		t.Fatal("zero capacity not defaulted")
	}
}

// Property: after k adds, LastN returns min(k, cap) readings ending with
// the most recent, in order.
func TestPropertyRingStoreWindow(t *testing.T) {
	f := func(capacity, adds uint8) bool {
		capn := int(capacity%16) + 1
		k := int(adds % 64)
		s := NewRingStore(capn)
		for i := 1; i <= k; i++ {
			s.Add(probe.Reading{Value: float64(i)})
		}
		want := k
		if want > capn {
			want = capn
		}
		got := s.LastN(0)
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Value != float64(k-want+i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestESPOnDemandGetValue(t *testing.T) {
	e := replayESP("Neem-Sensor", 20, 21, 22)
	defer e.Close()
	for _, want := range []float64{20, 21, 22} {
		r, err := e.GetValue()
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != want || r.Sensor != "Neem-Sensor" {
			t.Fatalf("reading = %+v, want %v", r, want)
		}
	}
	if e.Store().Len() != 3 {
		t.Fatal("on-demand reads not stored")
	}
}

func TestESPGetReadings(t *testing.T) {
	e := replayESP("x", 1, 2, 3)
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.GetValue()
	}
	got := e.GetReadings(2)
	if len(got) != 2 || got[0].Value != 2 || got[1].Value != 3 {
		t.Fatalf("GetReadings = %v", got)
	}
}

func TestESPDescribe(t *testing.T) {
	e := replayESP("Neem-Sensor", 1)
	defer e.Close()
	info := e.Describe()
	if info.Name != "Neem-Sensor" || info.Kind != "temperature" || info.Unit != "celsius" {
		t.Fatalf("Describe = %+v", info)
	}
}

func TestESPBackgroundSampling(t *testing.T) {
	e := NewESP("bg", probe.NewReplayProbe("bg", "k", "u", []float64{1, 2, 3, 4, 5}, true, nil),
		WithSampleInterval(time.Millisecond))
	defer e.Close()
	e.Start()
	e.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for e.Store().Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Store().Len() < 3 {
		t.Fatal("background sampling produced nothing")
	}
	e.Stop()
	n := e.Store().Len()
	time.Sleep(20 * time.Millisecond)
	if e.Store().Len() != n {
		t.Fatal("sampling continued after Stop")
	}
	// Sampled ESP GetValue returns stored reading.
	r, err := e.GetValue()
	if err != nil || r.Value == 0 {
		t.Fatalf("GetValue = %v, %v", r, err)
	}
}

func TestESPSamplingFiresEvents(t *testing.T) {
	e := NewESP("ev", probe.NewReplayProbe("ev", "k", "u", []float64{1}, true, nil),
		WithSampleInterval(time.Millisecond))
	defer e.Close()
	got := make(chan event.RemoteEvent, 64)
	e.Events().Register(EventReadingUpdate, event.ListenerFunc(func(ev event.RemoteEvent) error {
		select {
		case got <- ev:
		default:
		}
		return nil
	}), time.Hour)
	e.Start()
	select {
	case ev := <-got:
		if r, ok := ev.Payload.(probe.Reading); !ok || r.Sensor != "ev" {
			t.Fatalf("payload = %+v", ev.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reading event")
	}
}

func TestESPDeadProbeError(t *testing.T) {
	dev := spot.NewDevice(spot.Config{Name: "d", BatteryMicroJ: 1}) // dies immediately
	dev.Attach(spot.ConstantModel{Value: 1, KindName: "temperature"})
	e := NewESP("dead", probe.NewSpotProbe("dead", dev, "temperature", nil))
	defer e.Close()
	e.GetValue() // first read may succeed or fail depending on budget
	_, err := e.GetValue()
	if err == nil {
		_, err = e.GetValue()
	}
	if !errors.Is(err, spot.ErrBatteryDead) {
		t.Fatalf("err = %v", err)
	}
}

func newSensorRig(t *testing.T) (*discovery.Manager, *registry.LookupService, *sorcer.Exerter) {
	t.Helper()
	bus := discovery.NewBus()
	lus := registry.New("lus", clockwork.NewFake(epoch))
	cancel := bus.Announce(lus)
	mgr := discovery.NewManager(bus)
	t.Cleanup(func() { mgr.Terminate(); cancel(); lus.Close() })
	return mgr, lus, sorcer.NewExerter(sorcer.NewAccessor(mgr))
}

func TestESPPublishAndLookup(t *testing.T) {
	mgr, lus, _ := newSensorRig(t)
	e := replayESP("Neem-Sensor", 21.5)
	defer e.Close()
	join := e.Publish(clockwork.Real(), mgr, attr.Location("CP TTU", "3", "310"))
	defer join.Terminate()

	item, err := lus.LookupOne(registry.ByName("Neem-Sensor", AccessorType))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := item.Attributes.Find(attr.TypeLocation); !ok {
		t.Fatal("extra attributes not registered")
	}
	st, _ := item.Attributes.Find(attr.TypeServiceType)
	if v, _ := st.Get("category"); v != CategoryElementary {
		t.Fatalf("category = %v", v)
	}
	acc, ok := item.Service.(DataAccessor)
	if !ok {
		t.Fatal("proxy is not a DataAccessor")
	}
	r, err := acc.GetValue()
	if err != nil || r.Value != 21.5 {
		t.Fatalf("via-registry read = %v, %v", r, err)
	}
}

func TestESPServicerGetValue(t *testing.T) {
	mgr, _, exerter := newSensorRig(t)
	e := replayESP("Neem-Sensor", 23.25)
	defer e.Close()
	join := e.Publish(clockwork.Real(), mgr)
	defer join.Terminate()

	sig := sorcer.Signature{ServiceType: AccessorType, Selector: SelGetValue, ProviderName: "Neem-Sensor"}
	task := sorcer.NewTask("read", sig, nil)
	res, err := exerter.Exert(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Context().Float(PathValue)
	if err != nil || v != 23.25 {
		t.Fatalf("exerted value = %v, %v", v, err)
	}
	if name, _ := res.Context().StringAt(PathName); name != "Neem-Sensor" {
		t.Fatalf("name = %v", name)
	}
}

func TestESPServicerGetReadingsAndInfo(t *testing.T) {
	e := replayESP("x", 1, 2, 3)
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.GetValue()
	}
	task := sorcer.NewTask("readings",
		sorcer.Signature{ServiceType: AccessorType, Selector: SelGetReadings},
		sorcer.NewContextFrom(PathCount, 2.0))
	if _, err := e.Service(task, nil); err != nil {
		t.Fatal(err)
	}
	vals, _ := task.Context().Get(PathReadings)
	if got := vals.([]float64); len(got) != 2 || got[1] != 3 {
		t.Fatalf("readings = %v", got)
	}

	info := sorcer.NewTask("info", sorcer.Signature{ServiceType: AccessorType, Selector: SelGetInfo}, nil)
	if _, err := e.Service(info, nil); err != nil {
		t.Fatal(err)
	}
	if k, _ := info.Context().StringAt(PathKind); k != "temperature" {
		t.Fatalf("kind = %v", k)
	}
}

func TestESPServicerErrors(t *testing.T) {
	e := replayESP("x", 1)
	defer e.Close()
	// Wrong exertion kind.
	if _, err := e.Service(sorcer.NewJob("j", sorcer.Strategy{}), nil); !errors.Is(err, sorcer.ErrNotTask) {
		t.Fatalf("err = %v", err)
	}
	// Wrong service type.
	badType := sorcer.NewTask("t", sorcer.Sig("Other", SelGetValue), nil)
	if _, err := e.Service(badType, nil); !errors.Is(err, sorcer.ErrWrongType) {
		t.Fatalf("err = %v", err)
	}
	// Unknown selector fails the task.
	badSel := sorcer.NewTask("t", sorcer.Sig(AccessorType, "nope"), nil)
	if _, err := e.Service(badSel, nil); !errors.Is(err, sorcer.ErrUnknownSelector) {
		t.Fatalf("err = %v", err)
	}
	if badSel.Status() != sorcer.Failed {
		t.Fatalf("status = %v", badSel.Status())
	}
	// Probe failure surfaces through the exertion.
	exhausted := NewESP("e", probe.NewReplayProbe("e", "k", "u", nil, false, nil))
	defer exhausted.Close()
	failing := sorcer.NewTask("t", sorcer.Sig(AccessorType, SelGetValue), nil)
	if _, err := exhausted.Service(failing, nil); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v", err)
	}
}

func TestESPLeaseDepartureFromRegistry(t *testing.T) {
	// Plug-and-play departure: terminating the join removes the sensor.
	mgr, lus, _ := newSensorRig(t)
	e := replayESP("gone", 1)
	defer e.Close()
	join := e.Publish(clockwork.Real(), mgr)
	if _, err := lus.LookupOne(registry.ByName("gone")); err != nil {
		t.Fatal("not registered")
	}
	join.Terminate()
	if _, err := lus.LookupOne(registry.ByName("gone")); err == nil {
		t.Fatal("still registered after departure")
	}
}

// clockworkFake builds a fake clock at the shared test epoch.
func clockworkFake() *clockwork.Fake { return clockwork.NewFake(epoch) }

func TestESPHealthFromSpotBattery(t *testing.T) {
	dev := spot.NewDevice(spot.Config{Name: "d", BatteryMicroJ: 100})
	dev.Attach(spot.ConstantModel{Value: 1, KindName: "temperature"})
	e := NewESP("d", probe.NewSpotProbe("d", dev, "temperature", nil))
	defer e.Close()
	level, ok := e.Health()
	if !ok || level != 1 {
		t.Fatalf("fresh health = %v, %v", level, ok)
	}
	e.GetValue() // drains
	level2, _ := e.Health()
	if level2 >= level {
		t.Fatalf("health did not decrease: %v -> %v", level, level2)
	}
	// getInfo exposes health in the exertion context.
	task := sorcer.NewTask("i", sorcer.Sig(AccessorType, SelGetInfo), nil)
	if _, err := e.Service(task, nil); err != nil {
		t.Fatal(err)
	}
	h, err := task.Context().Float(PathHealth)
	if err != nil || h != level2 {
		t.Fatalf("context health = %v, %v", h, err)
	}
}

func TestESPHealthUnavailableForReplay(t *testing.T) {
	e := replayESP("r", 1)
	defer e.Close()
	if _, ok := e.Health(); ok {
		t.Fatal("replay probe reported health")
	}
	task := sorcer.NewTask("i", sorcer.Sig(AccessorType, SelGetInfo), nil)
	e.Service(task, nil)
	if _, found := task.Context().Get(PathHealth); found {
		t.Fatal("health path set without a reporter")
	}
}
