package main

import (
	"math"
	"math/rand"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"sensorcer/internal/testbed"
)

// TestMain lets the test binary stand in for the bench binary when a
// test spawns a node or a spinner: both re-execute os.Executable().
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && runRole(os.Args[1], os.Args[2:]) {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestWindowedPercentile(t *testing.T) {
	const numWindows = 7
	start := time.Now()
	w := newWindows(start, numWindows*time.Second, numWindows)
	// Every window holds 1..100 µs, except one that a stall inflated
	// tenfold: the median over windows must not see it.
	for i := 0; i < numWindows; i++ {
		scale := 1.0
		if i == 2 {
			scale = 10
		}
		for v := 1; v <= 100; v++ {
			w.add(start.Add(time.Duration(i)*time.Second+time.Millisecond), float64(v)*scale)
		}
	}
	if p50, n := w.percentile(50); p50 != 50 || n != 100*numWindows {
		t.Errorf("p50 = %v over %d samples, want 50 over %d", p50, n, 100*numWindows)
	}
	if p99, _ := w.percentile(99); p99 != 99 {
		t.Errorf("p99 = %v, want 99", p99)
	}
	// Out-of-range due times land in the edge windows instead of being lost.
	w.add(start.Add(-time.Hour), 1)
	w.add(start.Add(time.Hour), 1)
	if _, n := w.percentile(50); n != 100*numWindows+2 {
		t.Errorf("kept %d samples, want %d", n, 100*numWindows+2)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// stallClock is a virtual clock: sleeping advances it at once, and the
// first sleep overshoots by stall, as a frozen generator would.
type stallClock struct {
	mu    sync.Mutex
	t     time.Time
	stall time.Duration
}

func (c *stallClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stallClock) sleep(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d + c.stall)
	c.stall = 0
	c.mu.Unlock()
}

// A stall in the generator must show in every operation it delayed —
// latency counts from the due time — and in the generator's lateness.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clock := &stallClock{t: time.Unix(1_000_000, 0), stall: 50 * time.Millisecond}
	dur := 400 * time.Millisecond
	loop := openLoop{rate: 1000, dur: dur, rng: rand.New(rand.NewSource(1)), clock: clock}
	rec := newWindows(clock.now(), dur, 1)
	st := loop.run(rec, func(int, uint64) error { return nil })
	if st.failed != 0 || st.attempted < 200 {
		t.Fatalf("attempted %d, failed %d", st.attempted, st.failed)
	}
	// About 50 arrivals fell due during the stall; the operation itself is
	// instant, so only counting from the due time can make them slow.
	slow := 0
	for _, us := range rec.lat[0] {
		if us > 10_000 {
			slow++
		}
	}
	if slow < 20 {
		t.Errorf("%d operations saw the stall in their latency, want at least 20", slow)
	}
	if late := percentile(st.late, 99); late < 30_000 {
		t.Errorf("generator lateness p99 = %.0f us, want the 50 ms stall to show", late)
	}
	if late := percentile(st.late, 50); late != 0 {
		t.Errorf("generator lateness p50 = %.0f us: the stall should not reach the median", late)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([12, 7, 3, 9, 15, 4, 8, 10, 6, 11], n=4)
	// == [5.5, 8.5, 11.25]
	q1, q3 := quartiles([]float64{12, 7, 3, 9, 15, 4, 8, 10, 6, 11})
	if q1 != 5.5 || q3 != 11.25 {
		t.Errorf("quartiles = %v, %v, want 5.5, 11.25", q1, q3)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if w := worseBy(100, 90, "higher"); math.Abs(w-0.1) > 1e-9 {
		t.Errorf("worseBy(higher) = %v, want 0.1", w)
	}
	if !allBetter([]float64{10, 11}, []float64{8, 9}, "lower") || allBetter([]float64{10, 11}, []float64{8, 10}, "lower") {
		t.Error("allBetter misjudged")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a run emitted exactly the names the contract
// lists, each once, finite and well-formed.
func checkMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", res.Workload, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, contract says %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
	}
	if len(res.Metrics) != len(want) {
		for name := range res.Metrics {
			found := false
			for _, m := range want {
				found = found || m.Name == name
			}
			if !found {
				t.Errorf("%s: metric %s emitted but not in the contract", res.Workload, name)
			}
		}
	}
}

// TestSmoke runs every workload for one second, untraced and traced,
// and holds the output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the federation's processes")
	}
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("contract lists %d workloads, the bench has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("contract workload %d is %q, the bench has %q", i, w.Name, workloadNames[i])
		}
	}
	tmp := t.TempDir()
	runRoot, buildDir = tmp+"/run", tmp+"/build"
	setupRuns, probeScale = 1, 20
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		t.Fatal(err)
	}
	sensorcerd, err := testbed.BuildSensorcerd(buildDir)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := newSandbox()
	if err != nil {
		t.Fatal(err)
	}
	defer sb.close()

	for _, name := range workloadNames {
		res, err := runUntraced(sb, name, sensorcerd, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, res, spec.EndToEnd)
		if fs := res.Info["fail_share"].Value; fs != 0 {
			t.Errorf("%s: fail_share = %v", name, fs)
		}
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
	results, err := runTraced(sb, sensorcerd, 1, 1, workloadNames)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		checkMetrics(t, res, spec.PerLayer)
	}
	if _, err := os.Stat(spanFile()); err != nil {
		t.Errorf("span file: %v", err)
	}
	sb.close()
	if entries, _ := os.ReadDir(runRoot); len(entries) != 0 {
		t.Errorf("%d scratch directories left behind", len(entries))
	}
}
