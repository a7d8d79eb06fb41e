package sensor

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/sorcer"
)

func TestCSPAverageDefault(t *testing.T) {
	c := NewCSP("Composite-Service")
	for _, cfg := range []struct {
		name string
		v    float64
	}{{"Neem-Sensor", 20}, {"Jade-Sensor", 22}, {"Diamond-Sensor", 24}} {
		e := replayESP(cfg.name, cfg.v)
		defer e.Close()
		if _, err := c.AddChild(e); err != nil {
			t.Fatal(err)
		}
	}
	r, err := c.GetValue()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 22 || r.Unit != "celsius" || r.Sensor != "Composite-Service" {
		t.Fatalf("reading = %+v", r)
	}
}

func TestCSPVariableBindingOrder(t *testing.T) {
	c := NewCSP("c")
	names := []string{"s1", "s2", "s3"}
	for i, n := range names {
		e := replayESP(n, float64(i+1))
		defer e.Close()
		v, err := c.AddChild(e)
		if err != nil {
			t.Fatal(err)
		}
		if v != varName(i) {
			t.Fatalf("var for child %d = %q", i, v)
		}
	}
	kids := c.Children()
	if kids[0].Var != "a" || kids[1].Var != "b" || kids[2].Var != "c" {
		t.Fatalf("Children = %v", kids)
	}
	// Use the variables positionally: a=1, b=2, c=3.
	if err := c.SetExpression("a*100 + b*10 + c"); err != nil {
		t.Fatal(err)
	}
	r, err := c.GetValue()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 123 {
		t.Fatalf("value = %v", r.Value)
	}
}

func TestVarNameOverflow(t *testing.T) {
	if varName(25) != "z" || varName(26) != "v26" || varName(100) != "v100" {
		t.Fatalf("varName sequence broken: %q %q %q", varName(25), varName(26), varName(100))
	}
}

func TestCSPPaperExpression(t *testing.T) {
	// §VI step 2: "(a + b + c)/3" over three sensors.
	c := NewCSP("subnet")
	for _, cfg := range []struct {
		name string
		v    float64
	}{{"Neem-Sensor", 19.5}, {"Jade-Sensor", 21.0}, {"Diamond-Sensor", 22.5}} {
		e := replayESP(cfg.name, cfg.v)
		defer e.Close()
		c.AddChild(e)
	}
	if err := c.SetExpression("(a + b + c)/3"); err != nil {
		t.Fatal(err)
	}
	r, err := c.GetValue()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-21.0) > 1e-12 {
		t.Fatalf("value = %v", r.Value)
	}
	if c.Expression() != "(a + b + c)/3" {
		t.Fatalf("Expression = %q", c.Expression())
	}
}

func TestCSPNestedComposites(t *testing.T) {
	// Fig. 3: a composite of (composite of 3 sensors) and Coral-Sensor
	// with "(a + b)/2".
	inner := NewCSP("Composite-Service")
	for _, cfg := range []struct {
		name string
		v    float64
	}{{"Neem-Sensor", 20}, {"Jade-Sensor", 22}, {"Diamond-Sensor", 24}} {
		e := replayESP(cfg.name, cfg.v)
		defer e.Close()
		inner.AddChild(e)
	}
	inner.SetExpression("(a + b + c)/3") // = 22

	coral := replayESP("Coral-Sensor", 26)
	defer coral.Close()

	outer := NewCSP("New-Composite")
	outer.AddChild(inner)
	outer.AddChild(coral)
	outer.SetExpression("(a + b)/2") // (22 + 26)/2 = 24

	r, err := outer.GetValue()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 24 {
		t.Fatalf("nested composite = %v", r.Value)
	}
}

func TestCSPValuesListBuiltin(t *testing.T) {
	c := NewCSP("c")
	for i, v := range []float64{5, 10, 30} {
		e := replayESP(varName(i)+"-s", v)
		defer e.Close()
		c.AddChild(e)
	}
	c.SetExpression("max(values) - min(values)")
	r, err := c.GetValue()
	if err != nil || r.Value != 25 {
		t.Fatalf("range = %v, %v", r, err)
	}
}

func TestCSPEmptyFails(t *testing.T) {
	c := NewCSP("empty")
	if _, err := c.GetValue(); !errors.Is(err, ErrNoChildren) {
		t.Fatalf("err = %v", err)
	}
}

func TestCSPRejectsDuplicatesSelfAndNil(t *testing.T) {
	c := NewCSP("c")
	e := replayESP("s", 1)
	defer e.Close()
	if _, err := c.AddChild(e); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddChild(e); err == nil {
		t.Fatal("duplicate child accepted")
	}
	if _, err := c.AddChild(c); err == nil {
		t.Fatal("self-composition accepted")
	}
	if _, err := c.AddChild(nil); err == nil {
		t.Fatal("nil child accepted")
	}
}

func TestCSPRemoveChildRebindsVars(t *testing.T) {
	c := NewCSP("c")
	for i, v := range []float64{1, 2, 3} {
		e := replayESP([]string{"s1", "s2", "s3"}[i], v)
		defer e.Close()
		c.AddChild(e)
	}
	if err := c.RemoveChild("s2"); err != nil {
		t.Fatal(err)
	}
	kids := c.Children()
	if len(kids) != 2 || kids[0].Var != "a" || kids[1].Var != "b" || kids[1].Name != "s3" {
		t.Fatalf("Children = %v", kids)
	}
	c.SetExpression("a*10 + b")
	r, err := c.GetValue()
	if err != nil || r.Value != 13 {
		t.Fatalf("value after rebind = %v, %v", r, err)
	}
	if err := c.RemoveChild("ghost"); err == nil {
		t.Fatal("removing unknown child accepted")
	}
}

func TestCSPBadExpressionRejected(t *testing.T) {
	c := NewCSP("c")
	if err := c.SetExpression("(a +"); err == nil {
		t.Fatal("syntax error accepted")
	}
	// Clearing restores default.
	if err := c.SetExpression(""); err != nil {
		t.Fatal(err)
	}
}

func TestCSPUnboundVariableSurfaces(t *testing.T) {
	c := NewCSP("c")
	e := replayESP("only", 1)
	defer e.Close()
	c.AddChild(e)
	c.SetExpression("a + b") // b unbound (only one child)
	if _, err := c.GetValue(); err == nil || !strings.Contains(err.Error(), "unbound variable") {
		t.Fatalf("err = %v", err)
	}
}

func TestCSPChildFailurePropagates(t *testing.T) {
	c := NewCSP("c")
	ok := replayESP("good", 1)
	defer ok.Close()
	dead := NewESP("dead", probe.NewReplayProbe("dead", "k", "u", nil, false, nil))
	defer dead.Close()
	c.AddChild(ok)
	c.AddChild(dead)
	_, err := c.GetValue()
	if err == nil || !strings.Contains(err.Error(), `"dead"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestCSPMixedUnits(t *testing.T) {
	c := NewCSP("c")
	temp := NewESP("t", probe.NewReplayProbe("t", "temperature", "celsius", []float64{20}, true, nil))
	defer temp.Close()
	hum := NewESP("h", probe.NewReplayProbe("h", "humidity", "percent", []float64{50}, true, nil))
	defer hum.Close()
	c.AddChild(temp)
	c.AddChild(hum)
	r, err := c.GetValue()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unit != "" {
		t.Fatalf("mixed-unit composite unit = %q, want empty", r.Unit)
	}
}

func TestCSPSequentialReads(t *testing.T) {
	c := NewCSP("c", WithSequentialReads())
	for i, v := range []float64{1, 2} {
		e := replayESP([]string{"x", "y"}[i], v)
		defer e.Close()
		c.AddChild(e)
	}
	r, err := c.GetValue()
	if err != nil || r.Value != 1.5 {
		t.Fatalf("sequential read = %v, %v", r, err)
	}
}

// slowAccessor blocks until released.
type slowAccessor struct {
	name    string
	release chan struct{}
}

func (s *slowAccessor) SensorName() string { return s.name }
func (s *slowAccessor) GetValue() (probe.Reading, error) {
	<-s.release
	return probe.Reading{Sensor: s.name, Value: 1}, nil
}
func (s *slowAccessor) GetReadings(int) []probe.Reading { return nil }
func (s *slowAccessor) Describe() probe.Info            { return probe.Info{Name: s.name} }

func TestCSPChildTimeout(t *testing.T) {
	fc := clockworkFake()
	c := NewCSP("c", WithCSPClock(fc))
	slow := &slowAccessor{name: "slow", release: make(chan struct{})}
	defer close(slow.release)
	c.AddChild(slow)
	errc := make(chan error, 1)
	go func() {
		_, err := c.GetValue()
		errc <- err
	}()
	for fc.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	fc.Advance(readTimeout)
	if err := <-errc; !errors.Is(err, ErrChildTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestCSPStoreAndGetReadings(t *testing.T) {
	c := NewCSP("c")
	e := replayESP("s", 10, 20)
	defer e.Close()
	c.AddChild(e)
	c.GetValue()
	c.GetValue()
	got := c.GetReadings(0)
	if len(got) != 2 || got[0].Value != 10 || got[1].Value != 20 {
		t.Fatalf("GetReadings = %v", got)
	}
}

func TestCSPDescribe(t *testing.T) {
	c := NewCSP("c")
	info := c.Describe()
	if info.Technology != "composite" || info.Name != "c" {
		t.Fatalf("Describe = %+v", info)
	}
}

func TestCSPServicer(t *testing.T) {
	c := NewCSP("comp")
	e := replayESP("s", 42)
	defer e.Close()
	c.AddChild(e)
	task := sorcer.NewTask("read", sorcer.Sig(AccessorType, SelGetValue), nil)
	if _, err := c.Service(task, nil); err != nil {
		t.Fatal(err)
	}
	v, err := task.Context().Float(PathValue)
	if err != nil || v != 42 {
		t.Fatalf("exerted composite = %v, %v", v, err)
	}
}

func TestCSPHistoryVariables(t *testing.T) {
	c := NewCSP("trend")
	e := replayESP("s", 10, 20, 60)
	defer e.Close()
	c.AddChild(e)
	// Prime two historical readings directly through the ESP.
	e.GetValue() // 10
	e.GetValue() // 20
	// "a - avg(a_hist)": current (60) minus mean of history window
	// (10, 20, 60 -> 30), i.e. a 30-degree jump.
	if err := c.SetExpression("a - avg(a_hist)"); err != nil {
		t.Fatal(err)
	}
	r, err := c.GetValue()
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 30 {
		t.Fatalf("trend = %v, want 30", r.Value)
	}
}

func TestCSPHistoryLenAndSpike(t *testing.T) {
	c := NewCSP("spike")
	e := replayESP("s", 1, 1, 1, 100)
	defer e.Close()
	c.AddChild(e)
	for i := 0; i < 3; i++ {
		e.GetValue()
	}
	c.SetExpression("a > 2 * avg(a_hist) ? 1 : 0") // spike detector
	r, err := c.GetValue()
	if err != nil || r.Value != 1 {
		t.Fatalf("spike detect = %v, %v", r, err)
	}
	if err := c.SetExpression("len(a_hist)"); err != nil {
		t.Fatal(err)
	}
	r, _ = c.GetValue()
	if r.Value < 4 {
		t.Fatalf("history length = %v", r.Value)
	}
}
