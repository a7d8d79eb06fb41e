package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// specFile is the benchmark's contract at the root of the repository.
const specFile = "BENCHMARK.json"

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// observedPrefix marks, in a loaded record set, the numbers an untraced
// run prints under "also observed". They are kept apart from the
// per-layer metrics of the same name, which a traced run measures
// differently.
const observedPrefix = "observed:"

// loadRecords reads a -out file into values[workload][metric].
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], m.Value)
		}
		if !rec.Trace {
			for name, m := range rec.Info {
				name = observedPrefix + name
				values[rec.Workload][name] = append(values[rec.Workload][name], m.Value)
			}
		}
	}
	return values, sc.Err()
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the benchmark contract measures spread with. v needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	data := append([]float64(nil), v...)
	sort.Float64s(data)
	const n = 4
	ld := len(data)
	cut := func(i int) float64 {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of v as a share of its median; 0
// when v is too short to have one.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// worseBy returns how much worse b's median is than a's, as a share of
// a's: positive is a regression whichever way the metric points.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// runCompare prints one row per workload and metric present in both
// record files, judging end-to-end metrics against their bounds, and
// returns 1 if any regressed.
func runCompare(pathA, pathB string) int {
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%-15s %-34s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "bound", "spread", "verdict")
	regressed := 0
	rows := func(list []specMetric) {
		for _, wl := range workloadNames {
			for _, m := range list {
				va, vb := a[wl][m.Name], b[wl][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				worse := worseBy(ma, mb, m.Better)
				sp := max(spread(va), spread(vb))
				verdict, bound := "", "-"
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", m.Bound*100)
					switch {
					case sp > m.Bound && !allBetter(va, vb, m.Better):
						verdict = "unresolved: spread exceeds the bound"
					case worse > m.Bound:
						verdict = "REGRESSED"
						regressed++
					default:
						verdict = "ok"
					}
				}
				fmt.Printf("%-15s %-34s %14.4f %14.4f %+7.1f%% %7s %6.1f%%  %s\n",
					wl, m.Name, ma, mb, worse*100, bound, sp*100, verdict)
			}
		}
	}
	rows(spec.EndToEnd)
	// What untraced runs observed beside the contract's metrics: shown,
	// not judged. All of them are "lower is better".
	seen := map[string]bool{}
	var observed []specMetric
	for _, wl := range workloadNames {
		for _, name := range sortedKeys(a[wl]) {
			if strings.HasPrefix(name, observedPrefix) && !seen[name] {
				seen[name] = true
				observed = append(observed, specMetric{Name: name, Better: "lower"})
			}
		}
	}
	rows(observed)
	rows(spec.PerLayer)
	if regressed > 0 {
		fmt.Printf("%d metric(s) regressed beyond their bound\n", regressed)
		return 1
	}
	return 0
}
