package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sensorcer/internal/srpc"
)

// A traced run reports the per-layer metrics. It runs the layer probes,
// then drives all four workloads — each layer's seam metrics come from
// the one workload that exercises that layer — twice each: an untraced
// twin (closed loop, one caller per connection, direct connections, no
// seams) and the traced federation (same loop, through counting proxies,
// with the node's timing seams and client spans). The difference between
// the two is the tracing overhead. The metrics that exist per workload
// (wire bytes, node allocations, driver share, overhead, the budget's
// remainder) are reported for the workload the run was asked for.

// traced is what tracing one workload yields.
type traced struct {
	home      metrics // seam metrics of the layers this workload exercises
	generic   metrics // the per-workload metrics
	budget    []budgetRow
	attempted int
	failed    int
	problems  []string
	spans     []span
}

// budgetRow is one line of a workload's latency budget: a layer's self
// time per operation.
type budgetRow struct {
	layer string
	us    float64
}

// spanFile is where a traced run writes its spans.
func spanFile() string { return filepath.Join(buildDir, "trace-spans.json") }

func runTraced(sb *sandbox, sensorcerd string, seed int64, seconds int, names []string) ([]*result, error) {
	probes, err := runProbes(sb)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	// Eight phases share the budget: twin and traced for four workloads.
	dur := time.Duration(seconds) * time.Second / 8
	all := map[string]*traced{}
	spans := map[string][]span{}
	for _, name := range workloadNames {
		var t *traced
		if name == wlPushFanout {
			t, err = tracePush(sb, dur)
		} else {
			t, err = traceRequest(sb, shapeOf(name), sensorcerd, seed, dur, probes)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		all[name] = t
		spans[name] = t.spans
	}
	if b, err := json.Marshal(spans); err != nil {
		return nil, err
	} else if err := os.WriteFile(spanFile(), b, 0o644); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", spanFile())

	var results []*result
	for _, name := range names {
		res := &result{Workload: name, Seed: seed, Trace: true, Correct: true, Metrics: metrics{}, Info: metrics{}}
		for k, v := range probes {
			res.Metrics[k] = v
		}
		for _, wl := range workloadNames {
			t := all[wl]
			for k, v := range t.home {
				res.Metrics[k] = v
			}
			res.Attempted += t.attempted
			res.Failed += t.failed
			for _, p := range t.problems {
				res.problem("%s: %s", wl, p)
			}
		}
		t := all[name]
		for k, v := range t.generic {
			res.Metrics[k] = v
		}
		sum := 0.0
		for _, row := range t.budget {
			res.Info.set("budget.self."+row.layer+"_us", "us", row.us, 0)
			sum += row.us
		}
		res.Info.set("budget.client_mean_us", "us", sum+t.generic["budget.unattributed_us"].Value, 0)
		res.Metrics.set("fail_share", "share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
		results = append(results, res)
	}
	return results, nil
}

// phaseStats is one phase of a traced run.
type phaseStats struct {
	load      loadStats
	p50       float64
	classes   map[string][]float64
	node      [2]nodeStats // before, after
	driverCPU time.Duration
	sutCPU    time.Duration
}

// measurePhase brackets run with the node's counters and both sides'
// CPU clocks.
func measurePhase(sut []*child, ctl *srpc.Client, dur time.Duration, run func(rec *windows) loadStats) (phaseStats, error) {
	var ph phaseStats
	var err error
	if ph.node[0], err = fetchStats(ctl); err != nil {
		return ph, err
	}
	cpu0, err := sumCPU(sut)
	if err != nil {
		return ph, err
	}
	self0 := selfCPU()
	rec := newWindows(time.Now(), dur, minWindows)
	ph.load = run(rec)
	ph.driverCPU = selfCPU() - self0
	cpu1, err := sumCPU(sut)
	if err != nil {
		return ph, err
	}
	ph.sutCPU = cpu1 - cpu0
	if ph.node[1], err = fetchStats(ctl); err != nil {
		return ph, err
	}
	ph.p50, _ = rec.percentile(50)
	return ph, nil
}

// closedPhase loads a request workload with one caller per connection.
func closedPhase(w requestWorkload, dur time.Duration, seed int64) (phaseStats, error) {
	w.classes()
	ph, err := measurePhase(w.sut(), w.node(), dur, func(rec *windows) loadStats {
		return closedLoop(connections, dur, seed, rec, w.op)
	})
	ph.classes = w.classes()
	return ph, err
}

// genericMetrics fills the per-workload metrics from a twin and a traced
// phase.
func genericMetrics(t *traced, twin, tr phaseStats, wireBytes int64) {
	ops := float64(twin.load.completed())
	t.generic.set("node.mallocs_per_op", "count", float64(twin.node[1].Mallocs-twin.node[0].Mallocs)/ops, twin.load.completed())
	t.generic.set("node.gc_pause_ms", "ms", float64(twin.node[1].GCPauseNS-twin.node[0].GCPauseNS)/1e6, 0)
	t.generic.set("driver.cpu_share", "share", cpuShare(twin.driverCPU, twin.sutCPU), 0)
	t.generic.set("srpc.wire_bytes_per_op", "bytes", float64(wireBytes)/float64(tr.load.completed()), tr.load.completed())
	t.generic.set("trace.overhead_pct", "%", (tr.p50-twin.p50)/twin.p50*100, 0)
	for _, ph := range []phaseStats{twin, tr} {
		t.attempted += ph.load.attempted
		t.failed += ph.load.failed
		if ph.load.firstErr != nil {
			t.problems = append(t.problems, ph.load.firstErr.Error())
		}
	}
}

// setBudget stores the rows and what the client saw beyond them.
func (t *traced) setBudget(clientMean float64, rows ...budgetRow) {
	t.budget = rows
	rest := clientMean
	for _, r := range rows {
		rest -= r.us
	}
	t.generic.set("budget.unattributed_us", "us", rest, 0)
}

func traceRequest(sb *sandbox, shape requestShape, sensorcerd string, seed int64, dur time.Duration, probes metrics) (*traced, error) {
	t := &traced{home: metrics{}, generic: metrics{}}
	rng := rand.New(rand.NewSource(seed))

	twinW := shape.make(sensorcerd)
	defer func() { twinW.close() }()
	if err := twinW.setup(sb, rand.New(rand.NewSource(seed)), false); err != nil {
		return nil, fmt.Errorf("twin set-up: %w", err)
	}
	twin, err := closedPhase(twinW, dur, rng.Int63())
	if err != nil {
		return nil, err
	}
	switch shape.name {
	case wlReadPoll:
		// How late the open-loop generator runs is measured where the
		// rate is highest.
		st := openLoop{rate: shape.rate, dur: dur, rng: rng}.run(nil, twinW.op)
		t.home.set("driver.late_p99_us", "us", percentile(st.late, 99), len(st.late))
		t.attempted += st.attempted
		t.failed += st.failed
	case wlSpaceJobs:
		var us float64
		if err := twinW.node().Call(methodWriteAck, writeAckParams{N: 200}, &us); err != nil {
			return nil, err
		}
		t.home.set("repl.write_ack_us", "us", us, 200)
	}
	twinW.close()

	w := shape.make(sensorcerd)
	defer w.close()
	if err := w.setup(sb, rand.New(rand.NewSource(seed)), true); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	w.spans() // the set-up's first operations are not part of the phase
	if err := w.node().Call(methodSpans, struct{}{}, nil); err != nil {
		return nil, err
	}
	bytes0, conns0 := w.wire()
	tr, err := closedPhase(w, dur, rng.Int63())
	if err != nil {
		return nil, err
	}
	bytes1, conns1 := w.wire()
	client := w.spans()
	var node []span
	if err := w.node().Call(methodSpans, struct{}{}, &node); err != nil {
		return nil, err
	}
	if err := w.finish(); err != nil {
		t.problems = append(t.problems, err.Error())
	}
	genericMetrics(t, twin, tr, bytes1-bytes0)
	t.spans = append(client, node...)

	echo := probes["srpc.echo_rtt_us"].Value
	switch shape.name {
	case wlReadPoll:
		analyzeRead(t, twin, client, node, echo)
	case wlSpaceJobs:
		analyzeJobs(t, client, node, echo)
	case wlRegistryChurn:
		analyzeRegistry(t, twin, client, conns1-conns0, probes)
	}
	return t, nil
}

// spanSet indexes spans by name.
type spanSet map[string][]span

func index(spans []span) spanSet {
	set := spanSet{}
	for _, s := range spans {
		set[s.Name] = append(set[s.Name], s)
	}
	return set
}

// total returns the summed duration (µs) and count of the spans whose
// name starts with prefix.
func (set spanSet) total(prefix string) (us float64, n int) {
	for name, spans := range set {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, s := range spans {
			us += s.us()
		}
		n += len(spans)
	}
	return us, n
}

func (set spanSet) mean(prefix string) (float64, int) {
	us, n := set.total(prefix)
	if n == 0 {
		return 0, 0
	}
	return us / float64(n), n
}

func analyzeRead(t *traced, twin phaseStats, client, node []span, echo float64) {
	cs, ns := index(client), index(node)
	espMean, espN := ns.mean("sensor.esp")
	cspTotal, cspN := ns.total("sensor.csp")
	t.home.set("sensor.csp_get_value_us", "us", cspTotal/float64(max(cspN, 1)), cspN)

	// The composite waits for its slowest child: per composite read (the
	// k-th call of every child belongs to the k-th read), the longest
	// child span.
	slowest := map[uint64]float64{}
	for name, spans := range ns {
		if strings.HasPrefix(name, "sensor.child.") {
			for _, s := range spans {
				slowest[s.Req] = max(slowest[s.Req], s.us())
			}
		}
	}
	waitTotal, share := 0.0, 0.0
	for _, s := range ns["sensor.csp"] {
		waitTotal += slowest[s.Req]
		if s.us() > 0 {
			share += slowest[s.Req] / s.us()
		}
	}
	t.home.set("sensor.csp_child_wait_us", "us", waitTotal/float64(max(cspN, 1)), cspN)
	t.home.set("sensor.csp_slowest_child_share", "share", share/float64(max(cspN, 1)), cspN)
	t.home.set("sensor.read_esp_p50_us", "us", percentile(twin.classes[readClassNames[classESP]], 50), len(twin.classes[readClassNames[classESP]]))
	t.home.set("sensor.read_composite_p50_us", "us", percentile(twin.classes[readClassNames[classComposite]], 50), len(twin.classes[readClassNames[classComposite]]))

	clientESP, n := cs.mean("remote.read.esp")
	self := clientESP - espMean - echo
	t.home.set("remote.read_self_us", "us", self, n)

	clientTotal, ops := cs.total("remote.read.")
	perOp := func(us float64) float64 { return us / float64(max(ops, 1)) }
	t.setBudget(perOp(clientTotal),
		budgetRow{"srpc", echo},
		budgetRow{"remote", self},
		budgetRow{"sensor", perOp(espMean*float64(espN) + cspTotal - waitTotal)},
		budgetRow{"sensor.child_wait", perOp(waitTotal)})
}

func analyzeJobs(t *traced, client, node []span, echo float64) {
	cs, ns := index(client), index(node)
	jobTotal, jobs := ns.total("sorcer.job")
	perJob := func(v float64) float64 { return v / float64(max(jobs, 1)) }
	writeTotal, writes := ns.total("space.spacer.write")
	takeTotal, _ := ns.total("space.spacer.take")
	spacerTotal, _ := ns.total("space.spacer.")
	_, spaceOps := ns.total("space.")
	shipTotal, ships := ns.total("repl.ship")
	records, bytes := 0, 0
	for _, s := range ns["repl.ship"] {
		records += s.N
		bytes += s.Bytes
	}
	opMean, opN := ns.mean("sorcer.provider_op")

	t.home.set("space.write_batch_us", "us", writeTotal/float64(max(writes, 1)), writes)
	t.home.set("space.take_wait_us", "us", perJob(takeTotal), jobs)
	t.home.set("space.ops_per_job", "count", perJob(float64(spaceOps)), jobs)
	t.home.set("repl.ship_rtt_us", "us", shipTotal/float64(max(ships, 1)), ships)
	t.home.set("repl.ships_per_job", "count", perJob(float64(ships)), jobs)
	t.home.set("repl.ship_records_per_batch", "count", float64(records)/float64(max(ships, 1)), ships)
	t.home.set("repl.ship_bytes_per_job", "bytes", perJob(float64(bytes)), jobs)
	t.home.set("sorcer.job_service_us", "us", perJob(jobTotal), jobs)
	t.home.set("sorcer.spacer_self_us", "us", perJob(jobTotal-spacerTotal), jobs)
	t.home.set("sorcer.provider_op_us", "us", opMean, opN)

	clientMean, _ := cs.mean("bench.job")
	t.setBudget(clientMean,
		budgetRow{"srpc", echo},
		budgetRow{"sorcer.spacer", perJob(jobTotal - spacerTotal)},
		budgetRow{"space.write", perJob(writeTotal)},
		budgetRow{"space.take_wait", perJob(takeTotal)})
}

func analyzeRegistry(t *traced, twin phaseStats, client []span, stubConns int64, probes metrics) {
	cs := index(client)
	count := func(class string) int { return len(cs["registry."+class]) }
	// Every lookup the traced phase issued: the two read classes, plus
	// the find-by-id check after each register and deregister.
	lookups := count(classLookupOne) + count(classBrowse) + count(classRegister) + count(classDereg)
	t.home.set("remote.stubs_dialed_per_lookup", "count", float64(stubConns)/float64(max(lookups, 1)), lookups)

	one, browse := twin.classes[classLookupOne], twin.classes[classBrowse]
	var writes []float64
	for _, c := range []string{classRegister, classRenew, classModify, classDereg} {
		writes = append(writes, twin.classes[c]...)
	}
	t.home.set("registry.class_lookup_one_p50_us", "us", percentile(one, 50), len(one))
	t.home.set("registry.class_browse_p50_us", "us", percentile(browse, 50), len(browse))
	t.home.set("registry.class_write_p50_us", "us", percentile(writes, 50), len(writes))
	t.home.set("lease.renew_rtt_us", "us", mean(twin.classes[classRenew]), len(twin.classes[classRenew]))

	echo, dial := probes["srpc.echo_rtt_us"].Value, probes["remote.lookup_stub_dial_us"].Value
	t.home.set("remote.lookup_self_us", "us", mean(one)-dial-echo-probes["registry.lookup_one_us"].Value, len(one))

	clientTotal, ops := cs.total("registry.")
	perOp := func(v float64) float64 { return v / float64(max(ops, 1)) }
	inProcess := float64(count(classLookupOne))*probes["registry.lookup_one_us"].Value +
		float64(count(classBrowse))*probes["registry.lookup_browse_us"].Value +
		float64(count(classRegister)+count(classDereg))*probes["registry.register_us"].Value/2
	// Stub dials made inside the timed part of an operation: the find-by-
	// id checks run after the operation's span has ended.
	timedDials := float64(count(classLookupOne) + count(classBrowse)*registryItems/registryLocations)
	t.setBudget(perOp(clientTotal),
		budgetRow{"srpc", echo},
		budgetRow{"registry", perOp(inProcess)},
		budgetRow{"remote.stub_dial", perOp(timedDials * dial)})
}

// tracePush is the traced run of push_fanout.
func tracePush(sb *sandbox, dur time.Duration) (*traced, error) {
	t := &traced{home: metrics{}, generic: metrics{}}
	res := &result{Correct: true}

	// One subscriber alone: the floor the stream flusher's gather window
	// puts under every pushed update.
	single := &pushFanout{}
	err := single.setup(sb, 1, false)
	if err == nil {
		rec := newWindows(time.Now(), dur/2, minWindows)
		single.observe(dur/2, rec)
		p50, n := rec.percentile(50)
		t.home.set("subscribe.single_sub_p50_us", "us", p50, n)
	}
	single.close()
	if err != nil {
		return nil, fmt.Errorf("single-subscriber set-up: %w", err)
	}

	phase := func(w *pushFanout) (phaseStats, error) {
		return measurePhase([]*child{w.main}, w.ctl, dur, func(rec *windows) loadStats {
			n, elapsed := w.observe(dur, rec)
			return loadStats{attempted: int(n), elapsed: elapsed}
		})
	}

	twinW := &pushFanout{}
	defer func() { twinW.close() }()
	if err := twinW.setup(sb, pushSubs, false); err != nil {
		return nil, fmt.Errorf("twin set-up: %w", err)
	}
	twin, err := phase(twinW)
	if err != nil {
		return nil, err
	}
	t.home.set("subscribe.paced_staleness_p50_ms", "ms", twinW.pacedStaleness(), 0)
	if err := twinW.settle(res); err != nil {
		return nil, err
	}
	t.home.set("subscribe.dropped_share", "share", twinW.droppedShare(), 0)
	st, err := fetchStats(twinW.ctl)
	if err != nil {
		return nil, err
	}
	var samples, evals uint64
	for i := range st.Samples {
		samples += st.Samples[i]
		evals += st.Evals[i]
	}
	t.home.set("subscribe.evals_per_sample", "count", float64(evals)/float64(max(samples, 1)), int(samples))
	twinW.close()

	w := &pushFanout{}
	defer w.close()
	if err := w.setup(sb, pushSubs, true); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	w.tr.take() // deliveries during set-up are not part of the phase
	if err := w.ctl.Call(methodSpans, struct{}{}, nil); err != nil {
		return nil, err
	}
	bytes0 := w.proxy.bytes.Load()
	tr, err := phase(w)
	if err != nil {
		return nil, err
	}
	wireBytes := w.proxy.bytes.Load() - bytes0
	if err := w.settle(res); err != nil {
		return nil, err
	}
	client := w.tr.take()
	var node []span
	if err := w.ctl.Call(methodSpans, struct{}{}, &node); err != nil {
		return nil, err
	}
	genericMetrics(t, twin, tr, wireBytes)
	t.failed += res.Failed
	t.problems = append(t.problems, res.Problems...)
	t.spans = append(client, node...)
	t.home.set("subscribe.wire_bytes_per_delivery", "bytes", float64(wireBytes)/float64(max(tr.load.completed(), 1)), tr.load.completed())

	// Follow the sampled subscriptions' deliveries back to the seam: a
	// delivery's stamp is its request id.
	ns := index(node)
	queueMean, queueN := ns.mean("event.queue")
	t.home.set("event.sample_to_eval_us", "us", queueMean, queueN)
	queueOf, evalOf, evalEnd := map[uint64]float64{}, map[uint64]float64{}, map[uint64]int64{}
	for _, s := range ns["event.queue"] {
		queueOf[s.Req] = s.us()
	}
	for _, s := range ns["subscribe.eval"] {
		evalOf[s.Req], evalEnd[s.Req] = s.us(), s.End
	}
	toRecv, deliveryTotal, queueTotal, evalTotal, joined := 0.0, 0.0, 0.0, 0.0, 0
	for _, d := range client {
		end, ok := evalEnd[d.Req]
		if !ok {
			continue
		}
		joined++
		toRecv += float64(d.End-end) / 1e3
		deliveryTotal += d.us()
		queueTotal += queueOf[d.Req]
		evalTotal += evalOf[d.Req]
	}
	per := func(v float64) float64 { return v / float64(max(joined, 1)) }
	t.home.set("subscribe.eval_to_recv_us", "us", per(toRecv), joined)
	t.setBudget(per(deliveryTotal),
		budgetRow{"event.queue", per(queueTotal)},
		budgetRow{"subscribe.eval", per(evalTotal)},
		budgetRow{"subscribe.eval_to_recv", per(toRecv)})
	return t, nil
}
