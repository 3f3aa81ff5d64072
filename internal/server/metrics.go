package server

import (
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/wire"
)

// Metrics accumulates per-endpoint request counts, latency summaries, and
// elements-touched counters (the access-path accounting the storage layer
// reports for every query). One registry serves the whole server; /metrics
// renders it as JSON.
type Metrics struct {
	start time.Time

	mu  sync.Mutex
	eps map[string]*endpointStats
}

type endpointStats struct {
	requests uint64
	errors   uint64
	touched  uint64
	latTotal time.Duration
	latMin   time.Duration
	latMax   time.Duration
	// respBytes and encTotal are the response bodies written and the time
	// spent rendering them: encTotal against latTotal is the share of the
	// endpoint that is encoding.
	respBytes uint64
	encTotal  time.Duration
	// timeouts counts the requests the deadline answered (deadline.go)
	// while their handler was still running.
	timeouts uint64
	// cond counts the conditional GETs by what revalidation found.
	cond wire.ConditionalMetrics
}

// NewMetrics returns an empty registry anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{
		start: time.Now(),
		eps:   make(map[string]*endpointStats),
	}
}

// endpoint returns the named endpoint's books, opening them on first use.
// Caller holds m.mu.
func (m *Metrics) endpoint(name string) *endpointStats {
	ep, ok := m.eps[name]
	if !ok {
		ep = &endpointStats{}
		m.eps[name] = ep
	}
	return ep
}

// RecordTimeout accounts one request the deadline answered. Its handler
// is still running and books the request itself (Record) when it returns.
func (m *Metrics) RecordTimeout(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.endpoint(endpoint).timeouts++
}

// RecordValidation accounts one conditional GET by what revalidating its
// validator found.
func (m *Metrics) RecordValidation(endpoint string, v catalog.Validation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.endpoint(endpoint).cond
	switch v {
	case catalog.ValidationSame:
		c.Same++
	case catalog.ValidationRevalidated:
		c.Revalidated++
	case catalog.ValidationChanged:
		c.Changed++
	default:
		c.Unknown++
	}
}

// Record accounts one request against the named endpoint: its latency,
// the elements it touched, and the size and encoding time of its body.
func (m *Metrics) Record(endpoint string, d time.Duration, touched int, isErr bool, respBytes int, enc time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoint(endpoint)
	ep.requests++
	if isErr {
		ep.errors++
	}
	if touched > 0 {
		ep.touched += uint64(touched)
	}
	ep.respBytes += uint64(respBytes)
	ep.encTotal += enc
	ep.latTotal += d
	if ep.requests == 1 || d < ep.latMin {
		ep.latMin = d
	}
	if d > ep.latMax {
		ep.latMax = d
	}
}

// Report renders the registry for the /metrics endpoint.
func (m *Metrics) Report() wire.MetricsResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := wire.MetricsResponse{
		UptimeSeconds: int64(time.Since(m.start) / time.Second),
		Endpoints:     make(map[string]wire.EndpointMetrics, len(m.eps)),
	}
	for name, ep := range m.eps {
		em := wire.EndpointMetrics{
			Requests:  ep.requests,
			Errors:    ep.errors,
			Touched:   ep.touched,
			LatencyUS: ep.latTotal.Microseconds(),
			MinUS:     ep.latMin.Microseconds(),
			MaxUS:     ep.latMax.Microseconds(),
			RespBytes: ep.respBytes,
			EncodeUS:  ep.encTotal.Microseconds(),
			Timeouts:  ep.timeouts,
		}
		if ep.requests > 0 {
			em.MeanUS = (ep.latTotal / time.Duration(ep.requests)).Microseconds()
		}
		if ep.cond != (wire.ConditionalMetrics{}) {
			cond := ep.cond
			em.Conditional = &cond
		}
		out.Endpoints[name] = em
		out.Requests += ep.requests
		out.Errors += ep.errors
	}
	return out
}

// runtimeMetrics reads the collector's books from runtime/metrics; there is
// no sampler, so each /metrics request pays one read.
func runtimeMetrics() *wire.RuntimeMetrics {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/scan/heap:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	out := &wire.RuntimeMetrics{
		HeapLiveBytes: s[2].Value.Uint64(),
		HeapScanBytes: s[3].Value.Uint64(),
		GCCycles:      s[4].Value.Uint64(),
	}
	if total := s[1].Value.Float64(); total > 0 {
		out.GCCPUShare = s[0].Value.Float64() / total
	}
	return out
}
