package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// A traced phase is cut into equal windows, and a latency metric is the
// median of the per-window percentile, so that a stall spoils the windows
// it falls in and leaves the metric alone. (An untraced run gets its
// windows from its rounds: one per measured segment.)
const minWindows = 5

// windows records per-operation latencies bucketed by the window their
// due time falls in. Safe for concurrent use.
type windows struct {
	start time.Time
	width time.Duration

	mu  sync.Mutex
	lat [][]float64
}

func newWindows(start time.Time, dur time.Duration, n int) *windows {
	return &windows{start: start, width: dur / time.Duration(n), lat: make([][]float64, n)}
}

// add records one latency (µs) for an operation due at the given time.
// Operations due outside the phase land in the nearest window.
func (w *windows) add(due time.Time, us float64) {
	i := int(due.Sub(w.start) / w.width)
	if i < 0 {
		i = 0
	}
	if i >= len(w.lat) {
		i = len(w.lat) - 1
	}
	w.mu.Lock()
	w.lat[i] = append(w.lat[i], us)
	w.mu.Unlock()
}

// percentile returns the median over the non-empty windows of each
// window's p-th percentile, and the total sample count.
func (w *windows) percentile(p float64) (float64, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var per []float64
	n := 0
	for i := range w.lat {
		if len(w.lat[i]) == 0 {
			continue
		}
		n += len(w.lat[i])
		per = append(per, percentile(w.lat[i], p))
	}
	return median(per), n
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of v,
// which it sorts in place; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1]
}

// median returns the middle value of v (mean of the middle pair for an
// even count), leaving v as it is; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

// mean returns the arithmetic mean of v; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
