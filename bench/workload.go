package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"sensorcer/internal/srpc"
)

// metric is one reported number. N is the sample count behind it (0
// when the value is a total or a ratio).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// result is the outcome of one workload run.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Info holds numbers worth printing that are not contract metrics of
	// this run mode (class percentiles, generator lateness, ...).
	Info metrics `json:"info,omitempty"`
	// Problems lists every failed correctness check.
	Problems []string `json:"problems,omitempty"`
	// Invalid marks a run whose generator ran too late to trust its tail.
	Invalid bool `json:"invalid,omitempty"`
	// Rounds holds, per number taken once a round, its value in each round
	// of an untraced run; what is reported is their median.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
}

func (r *result) round(name string, v float64) {
	r.Rounds[name] = append(r.Rounds[name], v)
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Workload names, in report order.
const (
	wlReadPoll      = "read_poll"
	wlPushFanout    = "push_fanout"
	wlSpaceJobs     = "space_jobs"
	wlRegistryChurn = "registry_churn"
)

var workloadNames = []string{wlReadPoll, wlPushFanout, wlSpaceJobs, wlRegistryChurn}

// connections is how many long-lived connections the driver loads the
// system through: one per core of the 2-core box the baseline was taken
// on, so the generator never outnumbers the hardware.
const connections = 2

// capacityCallers is the closed-loop population of the capacity phase:
// 8 operations in flight per connection.
const capacityCallers = connections * 8

// lateLimitUS is the generator lateness (p99) past which an open-loop
// run's tail is marked invalid: its p95 and p99 then measure the driver.
// (The median, which is what the run reports, does not move when one
// arrival in a hundred is dispatched late.)
const lateLimitUS = 1000

// requestWorkload is a workload whose operations are calls the driver
// issues: reads, lookups, jobs.
type requestWorkload interface {
	// setup spawns the system under test and connects to it; it returns
	// once an operation has succeeded on every connection. A traced
	// set-up routes the connections through counting proxies, installs
	// the node's timing seams and records client spans.
	setup(sb *sandbox, rng *rand.Rand, trace bool) error
	// op runs and checks one operation. caller selects the connection
	// in closed loops; u is the operation's random input.
	op(caller int, u uint64) error
	// finish runs the end-of-run checks.
	finish() error
	// sut lists the processes of the system under test.
	sut() []*child
	// node is a control connection to the bench-owned node whose runtime
	// counters are reported.
	node() *srpc.Client
	// classes returns the per-class service times (send to reply, µs)
	// recorded since the last call, keyed by class name.
	classes() map[string][]float64
	// wire returns the bytes and connections the proxies have carried
	// (traced set-ups only).
	wire() (bytes, conns int64)
	// spans returns and clears the client spans of a traced set-up.
	spans() []span
	close()
}

// requestShape says how a request workload is offered: open loop, as a
// Poisson process of `rate` operations a second.
type requestShape struct {
	name string
	rate float64
	// make returns a fresh, not yet set up instance; it is handed the
	// sensorcerd binary for the workloads that run real daemons.
	make func(sensorcerd string) requestWorkload
}

// federation is a set-up system under test, as an untraced run loads it.
type federation interface {
	// segment offers the workload's own load for dur — open loop at its
	// rate, or (push) the sensors' own cadence — and records each latency
	// in rec (nil: warm-up).
	segment(dur time.Duration, rec *windows) loadStats
	// timerBound reports whether the workload's latency is set by the
	// system's own timers and not by how fast the platform moves a request
	// (push: the stream flusher's gather window).
	timerBound() bool
	// classTimes returns the per-class service times (µs) recorded since
	// the last call.
	classTimes() map[string][]float64
	// check runs the end-of-run checks and records what failed in res.
	check(res *result) error
	sut() []*child
	close()
}

// saturator is a federation that can also be loaded as hard as its
// callers can: the request workloads.
type saturator interface {
	saturate(dur time.Duration) loadStats
}

// requestFed loads a requestWorkload the way its shape says.
type requestFed struct {
	requestWorkload
	shape requestShape
	rng   *rand.Rand
}

func (f *requestFed) segment(dur time.Duration, rec *windows) loadStats {
	return openLoop{rate: f.shape.rate, dur: dur, rng: f.rng}.run(rec, f.op)
}

// saturate is a closed loop of capacityCallers callers.
func (f *requestFed) saturate(dur time.Duration) loadStats {
	return closedLoop(capacityCallers, dur, f.rng.Int63(), nil, f.op)
}

func (f *requestFed) timerBound() bool { return false }

func (f *requestFed) classTimes() map[string][]float64 { return f.classes() }

func (f *requestFed) check(res *result) error {
	if err := f.finish(); err != nil {
		res.problem("%v", err)
	}
	return nil
}

// setupRuns is how many times a run sets the federation up; setup_s is
// their median and the last one serves the measured rounds. A variable so
// that the smoke test can make do with one.
var setupRuns = 16

// rounds is how many measured segments a run cuts its measured phase
// into. A time metric is taken once per round, corrected by the reference
// round trip of the same half second, and reported as the median of the
// rounds: a stall — this kind of virtual machine freezes for tens of
// milliseconds every few seconds — spoils the rounds it falls in and
// leaves the metric alone.
const rounds = 32

// phases splits the --seconds budget: a warm-up, then `rounds` measured
// segments that together last `seconds`, then (request workloads) a
// capacity phase a quarter as long.
func phases(seconds int) (warm, segment, capacity time.Duration) {
	measured := time.Duration(seconds) * time.Second
	warm = min(measured/5, 3*time.Second)
	return warm, measured / rounds, measured / 4
}

// setUp sets a federation up `setupRuns` times, tearing down all but the
// last, and returns the live one and the set-up time.
func setUp(mk func() (federation, error)) (federation, metric, error) {
	var times []float64
	var fed federation
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		var err error
		if fed, err = mk(); err != nil {
			return nil, metric{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			fed.close()
		}
	}
	return fed, metric{Value: median(times), Unit: "s", N: len(times)}, nil
}

// newFederation returns what sets the named workload's federation up.
func newFederation(sb *sandbox, name, sensorcerd string, seed int64) func() (federation, error) {
	if name == wlPushFanout {
		return func() (federation, error) {
			w := &pushFanout{}
			if err := w.setup(sb, pushSubs, false); err != nil {
				w.close()
				return nil, err
			}
			return w, nil
		}
	}
	shape := shapeOf(name)
	return func() (federation, error) {
		w := shape.make(sensorcerd)
		if err := w.setup(sb, rand.New(rand.NewSource(seed)), false); err != nil {
			w.close()
			return nil, err
		}
		return &requestFed{requestWorkload: w, shape: shape, rng: rand.New(rand.NewSource(seed))}, nil
	}
}

// runUntraced is the end-to-end run of one workload: repeated set-up, a
// warm-up, the measured rounds beside the reference, the capacity phase,
// the end-of-run checks.
func runUntraced(sb *sandbox, name, sensorcerd string, seed int64, seconds int) (*result, error) {
	res := &result{Workload: name, Seed: seed, Correct: true, Metrics: metrics{}, Info: metrics{}, Rounds: map[string][]float64{}}
	fed, setupS, err := setUp(newFederation(sb, name, sensorcerd, seed))
	if err != nil {
		return nil, err
	}
	defer fed.close()
	res.Metrics["setup_s"] = setupS
	ref, err := startReference(sb)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	warm, segment, capacity := phases(seconds)
	if st := fed.segment(warm, nil); st.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", st.firstErr)
	}
	fed.classTimes()
	tally := func(phase string, st loadStats) {
		res.Attempted += st.attempted
		res.Failed += st.failed
		if st.firstErr != nil {
			res.problem("%s: %v", phase, st.firstErr)
		}
	}
	completed, echoes := 0, 0
	var measured time.Duration
	var late []float64 // per arrival of the whole measured phase
	for r := 0; r < rounds; r++ {
		cpu0, err := sumCPU(fed.sut())
		if err != nil {
			return nil, err
		}
		self0 := selfCPU()
		rec := newWindows(time.Now(), segment, 1)
		var st loadStats
		rtt, n, err := ref.during(func() { st = fed.segment(segment, rec) })
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		cpu1, err := sumCPU(fed.sut())
		if err != nil {
			return nil, err
		}
		self1 := selfCPU()
		tally("measured segment", st)
		completed += st.completed()
		echoes += n
		measured += st.elapsed
		if st.completed() == 0 || n == 0 {
			continue // a round that a freeze swallowed whole
		}
		p50, _ := rec.percentile(50)
		cpu := float64(cpu1-cpu0) / float64(time.Microsecond) / float64(st.completed())
		// Times are corrected to the reference's nominal round trip; a
		// latency that timers set does not stretch with the platform and
		// is left as measured.
		scale := refNominalUS / rtt
		latScale := scale
		if fed.timerBound() {
			latScale = 1
		}
		res.round("ref.rtt_p50_us", rtt)
		res.round("latency_p50_us", p50*latScale)
		res.round("cpu_us_per_op", cpu*scale)
		res.round("raw.latency_p50_us", p50)
		res.round("raw.cpu_us_per_op", cpu)
		for _, p := range []float64{95, 99} {
			v, _ := rec.percentile(p)
			res.round(fmt.Sprintf("raw.latency_p%.0f_us", p), v)
		}
		res.round("driver.cpu_share", cpuShare(self1-self0, cpu1-cpu0))
		late = append(late, st.late...)
	}
	if completed == 0 || echoes == 0 {
		return nil, errors.New("nothing completed in the measured phase")
	}
	settle := func(into metrics, name, unit string, n int) {
		into.set(name, unit, median(res.Rounds[name]), n)
	}
	settle(res.Metrics, "latency_p50_us", "us", completed)
	settle(res.Metrics, "cpu_us_per_op", "us", completed)
	res.Metrics.set("throughput_ops_s", "1/s", float64(completed)/measured.Seconds(), completed)
	settle(res.Info, "ref.rtt_p50_us", "us", echoes)
	for _, name := range []string{"raw.latency_p50_us", "raw.latency_p95_us", "raw.latency_p99_us", "raw.cpu_us_per_op"} {
		settle(res.Info, name, "us", completed)
	}
	settle(res.Info, "driver.cpu_share", "share", 0)
	if len(late) > 0 {
		res.Info.set("driver.late_p50_us", "us", percentile(late, 50), len(late))
		res.Info.set("driver.late_p99_us", "us", percentile(late, 99), len(late))
		res.Invalid = res.Info["driver.late_p99_us"].Value > lateLimitUS
	}
	for class, lat := range fed.classTimes() {
		res.Info.set("class."+class+".p50_us", "us", percentile(lat, 50), len(lat))
	}

	if s, ok := fed.(saturator); ok {
		st := s.saturate(capacity)
		tally("capacity phase", st)
		res.Info.set("capacity_ops_s", "1/s", float64(st.completed())/st.elapsed.Seconds(), st.completed())
		fed.classTimes()
	}
	rss, err := sumRSS(fed.sut())
	if err != nil {
		return nil, err
	}
	res.Metrics.set("peak_rss_mb", "MB", rss, 0)
	if err := fed.check(res); err != nil {
		return nil, err
	}
	res.Info.set("fail_share", "share", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	return res, nil
}

func cpuShare(driver, sut time.Duration) float64 {
	if driver+sut <= 0 {
		return 0
	}
	return float64(driver) / float64(driver+sut)
}

func sumRSS(children []*child) (float64, error) {
	total := 0.0
	for _, c := range children {
		mb, err := c.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// classRecorder collects per-class service times.
type classRecorder struct {
	mu  sync.Mutex
	lat map[string][]float64
}

func (c *classRecorder) add(class string, since time.Time) {
	us := float64(time.Since(since)) / float64(time.Microsecond)
	c.mu.Lock()
	if c.lat == nil {
		c.lat = make(map[string][]float64)
	}
	c.lat[class] = append(c.lat[class], us)
	c.mu.Unlock()
}

func (c *classRecorder) take() map[string][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.lat
	c.lat = nil
	return out
}

// spawnNode re-executes this binary as a node of the given spec.
func spawnNode(sb *sandbox, spec nodeSpec) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	input, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return sb.spawn("node-"+spec.Role, self, []string{"node"}, input)
}

// fetchStats reads a node's runtime counters.
func fetchStats(c *srpc.Client) (nodeStats, error) {
	var st nodeStats
	err := c.Call(methodStats, struct{}{}, &st)
	return st, err
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
