package serve

import (
	"sync/atomic"
	"time"
)

// endpointMetrics aggregates one endpoint's request accounting. All
// fields are atomics so the request path never takes a lock; begin/end
// bracket each served request.
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	shed     atomic.Uint64
	inFlight atomic.Int64
	totalNs  atomic.Int64
	maxNs    atomic.Int64
}

// begin marks a request in flight and returns its start time.
func (m *endpointMetrics) begin() time.Time {
	m.inFlight.Add(1)
	return time.Now()
}

// end closes the bracket begin opened.
func (m *endpointMetrics) end(start time.Time, failed bool) {
	d := time.Since(start).Nanoseconds()
	m.inFlight.Add(-1)
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	m.totalNs.Add(d)
	for {
		cur := m.maxNs.Load()
		if d <= cur || m.maxNs.CompareAndSwap(cur, d) {
			return
		}
	}
}

// EndpointStats is the exported snapshot of one endpoint's metrics, as
// served by /v1/stats.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Shed counts requests rejected with 429 by the admission bound
	// (also included in Errors).
	Shed     uint64 `json:"shed"`
	InFlight int64  `json:"in_flight"`
	// MeanMs is the mean served latency over all requests so far.
	MeanMs float64 `json:"mean_ms"`
	// MaxMs is the slowest request served so far.
	MaxMs float64 `json:"max_ms"`
	// PerSec is requests divided by process uptime — the sustained
	// throughput this endpoint has actually seen.
	PerSec float64 `json:"per_sec"`
}

// snapshot renders the counters against the service's uptime.
func (m *endpointMetrics) snapshot(uptime time.Duration) EndpointStats {
	s := EndpointStats{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Shed:     m.shed.Load(),
		InFlight: m.inFlight.Load(),
		MaxMs:    float64(m.maxNs.Load()) / 1e6,
	}
	if s.Requests > 0 {
		s.MeanMs = float64(m.totalNs.Load()) / float64(s.Requests) / 1e6
	}
	if sec := uptime.Seconds(); sec > 0 {
		s.PerSec = float64(s.Requests) / sec
	}
	return s
}
