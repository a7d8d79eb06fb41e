package probe

import (
	"errors"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/sensor/calib"
	"sensorcer/internal/spot"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func TestSpotProbeReadsDevice(t *testing.T) {
	fc := clockwork.NewFake(epoch)
	dev := spot.NewDevice(spot.Config{Name: "Neem", Clock: fc})
	dev.Attach(spot.ConstantModel{Value: 21.5, UnitName: "celsius", KindName: "temperature"})
	p := NewSpotProbe("Neem-Sensor", dev, "temperature", nil)

	info := p.Info()
	if info.Name != "Neem-Sensor" || info.Technology != "sunspot" || info.Unit != "celsius" {
		t.Fatalf("Info = %+v", info)
	}
	r, err := p.Read()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 21.5 || r.Sensor != "Neem-Sensor" || !r.Timestamp.Equal(epoch) {
		t.Fatalf("Reading = %+v", r)
	}
}

func TestSpotProbeCalibration(t *testing.T) {
	dev := spot.NewDevice(spot.Config{Name: "x"})
	dev.Attach(spot.ConstantModel{Value: 100, KindName: "temperature"})
	p := NewSpotProbe("x", dev, "temperature", calib.Chain{calib.Linear{Gain: 0.5, Offset: 1}})
	r, err := p.Read()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 51 {
		t.Fatalf("calibrated = %v", r.Value)
	}
}

func TestSpotProbeUnitInference(t *testing.T) {
	dev := spot.NewDevice(spot.Config{Name: "x"})
	for kind, unit := range map[string]string{
		"temperature": "celsius", "humidity": "percent", "light": "lux", "vibration": "unknown",
	} {
		p := NewSpotProbe("x", dev, kind, nil)
		if got := p.Info().Unit; got != unit {
			t.Fatalf("unit for %s = %q", kind, got)
		}
	}
}

func TestSpotProbePropagatesDeviceErrors(t *testing.T) {
	dev := spot.NewDevice(spot.Config{Name: "x"})
	p := NewSpotProbe("x", dev, "temperature", nil) // no sensor attached
	if _, err := p.Read(); !errors.Is(err, spot.ErrNoSensor) {
		t.Fatalf("err = %v", err)
	}
}

func TestProbeClose(t *testing.T) {
	dev := spot.NewDevice(spot.Config{Name: "x"})
	dev.Attach(spot.ConstantModel{Value: 1, KindName: "temperature"})
	probes := []Probe{
		NewSpotProbe("a", dev, "temperature", nil),
		NewSyntheticProbe("b", spot.ConstantModel{Value: 1, KindName: "k", UnitName: "u"}, nil, nil),
		NewReplayProbe("c", "k", "u", []float64{1}, true, nil),
	}
	for _, p := range probes {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Read(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: read after close err = %v", p.Info().Name, err)
		}
	}
}

func TestSyntheticProbe(t *testing.T) {
	fc := clockwork.NewFake(epoch)
	model := spot.NewTemperatureModel(20, 0, 0, 0, 1)
	p := NewSyntheticProbe("Synth", model, fc, calib.Chain{calib.Linear{Offset: 2}})
	info := p.Info()
	if info.Technology != "synthetic" || info.Kind != "temperature" {
		t.Fatalf("Info = %+v", info)
	}
	r, err := p.Read()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 22 {
		t.Fatalf("value = %v", r.Value)
	}
}

func TestReplayProbeSequenceAndLoop(t *testing.T) {
	p := NewReplayProbe("r", "temperature", "celsius", []float64{1, 2, 3}, true, nil)
	for pass := 0; pass < 2; pass++ {
		for _, want := range []float64{1, 2, 3} {
			r, err := p.Read()
			if err != nil || r.Value != want {
				t.Fatalf("pass %d: %v, %v", pass, r.Value, err)
			}
		}
	}
}

func TestReplayProbeExhaustion(t *testing.T) {
	p := NewReplayProbe("r", "k", "u", []float64{1}, false, nil)
	p.Read()
	if _, err := p.Read(); !errors.Is(err, ErrReplayExhausted) {
		t.Fatalf("err = %v", err)
	}
	empty := NewReplayProbe("e", "k", "u", nil, true, nil)
	if _, err := empty.Read(); !errors.Is(err, ErrReplayExhausted) {
		t.Fatalf("empty looped err = %v", err)
	}
}

func TestReplayProbeSeriesCopied(t *testing.T) {
	series := []float64{7}
	p := NewReplayProbe("r", "k", "u", series, true, nil)
	series[0] = 99
	r, _ := p.Read()
	if r.Value != 7 {
		t.Fatal("replay probe shares caller's slice")
	}
}
