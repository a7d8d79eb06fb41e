// Package sensor implements the SenSORCER framework itself — the paper's
// contribution (§V): elementary sensor providers (ESPs) wrapping probes,
// composite sensor providers (CSPs) that aggregate other sensor services
// with runtime compute-expressions, the SenSORCER Façade with its sensor
// network manager, the service accessor, and the Rio-backed sensor service
// provisioner. Every provider implements the common SensorDataAccessor
// interface and the SORCER Servicer interface, so sensors participate both
// in direct P2P reads and in exertion federations.
package sensor

import (
	"sync"

	"sensorcer/internal/sensor/probe"
)

// Registry type names under which sensor services register.
const (
	// AccessorType is the common SensorDataAccessor interface name.
	AccessorType = "SensorDataAccessor"
	// FacadeType marks SenSORCER façade services.
	FacadeType = "SensorcerFacade"
)

// Service categories shown in the browser (SorcerServiceType entry of the
// paper's Fig. 2: "Service Type:: COMPOSITE").
const (
	CategoryElementary = "ELEMENTARY"
	CategoryComposite  = "COMPOSITE"
	CategoryFacade     = "FACADE"
)

// Exertion selectors every sensor provider serves.
const (
	SelGetValue    = "getValue"
	SelGetReadings = "getReadings"
	SelGetInfo     = "getInfo"
)

// Context paths used by sensor exertions.
const (
	PathValue     = "sensor/value"
	PathUnit      = "sensor/unit"
	PathKind      = "sensor/kind"
	PathName      = "sensor/name"
	PathTimestamp = "sensor/timestamp"
	PathCount     = "sensor/count"
	PathReadings  = "sensor/readings"
	PathHealth    = "sensor/health"
)

// DataAccessor is the paper's SensorDataAccessor: the uniform
// data-aggregation interface every sensor service (elementary or
// composite) exposes to requestors — the answer to motivation #6 ("no
// uniform data-aggregation interface availability").
type DataAccessor interface {
	// SensorName returns the service name.
	SensorName() string
	// GetValue returns the current (most recent) reading.
	GetValue() (probe.Reading, error)
	// GetReadings returns up to n recent readings, oldest first.
	GetReadings(n int) []probe.Reading
	// Describe reports the sensor's kind/unit/technology.
	Describe() probe.Info
}

// ValueHistory is implemented by accessors whose recent values can be
// appended into a caller-owned buffer without allocating per call — the
// CSP's float64 fast path uses it to bind "<var>_hist" windows. Accessors
// without it fall back to GetReadings.
type ValueHistory interface {
	// AppendValues appends up to n recent values (oldest first) to dst
	// and returns the extended slice.
	AppendValues(dst []float64, n int) []float64
}

// RingStore is the ESP's local reading buffer: "the service provided by
// the single sensor should be capable of storing data to the local store"
// (§III-B). Fixed capacity, oldest evicted first.
type RingStore struct {
	mu   sync.RWMutex
	buf  []probe.Reading
	pos  int
	n    int
	seen uint64
}

// NewRingStore creates a store holding up to capacity readings.
func NewRingStore(capacity int) *RingStore {
	if capacity <= 0 {
		capacity = 64
	}
	return &RingStore{buf: make([]probe.Reading, capacity)}
}

// Add appends a reading, evicting the oldest at capacity.
func (s *RingStore) Add(r probe.Reading) {
	s.mu.Lock()
	s.buf[s.pos] = r
	s.pos = (s.pos + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.seen++
	s.mu.Unlock()
}

// Latest returns the most recent reading.
func (s *RingStore) Latest() (probe.Reading, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.n == 0 {
		return probe.Reading{}, false
	}
	idx := (s.pos - 1 + len(s.buf)) % len(s.buf)
	return s.buf[idx], true
}

// LastN returns up to n recent readings, oldest first.
func (s *RingStore) LastN(n int) []probe.Reading {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n <= 0 || n > s.n {
		n = s.n
	}
	out := make([]probe.Reading, n)
	start := (s.pos - n + len(s.buf)) % len(s.buf)
	for i := 0; i < n; i++ {
		out[i] = s.buf[(start+i)%len(s.buf)]
	}
	return out
}

// AppendValues appends up to n recent values (oldest first) to dst and
// returns the extended slice — the allocation-free complement of LastN
// for callers that only need the numeric series.
func (s *RingStore) AppendValues(dst []float64, n int) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n <= 0 || n > s.n {
		n = s.n
	}
	start := (s.pos - n + len(s.buf)) % len(s.buf)
	for i := 0; i < n; i++ {
		dst = append(dst, s.buf[(start+i)%len(s.buf)].Value)
	}
	return dst
}

// Len reports the number of stored readings.
func (s *RingStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Total reports how many readings have ever been added.
func (s *RingStore) Total() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seen
}
