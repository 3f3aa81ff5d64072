// Package server exposes the temporal-specialization engine over HTTP/JSON
// — the network face of tsdbd. It speaks the wire vocabulary of
// internal/wire, resolves relations through the concurrent catalog
// (internal/catalog), and ships the robustness a traffic-bearing surface
// needs: per-request timeouts, a request body size cap, structured error
// responses, panic containment, and a /metrics endpoint with per-endpoint
// request counts, latency summaries, and the storage layer's
// elements-touched accounting.
//
// Endpoints (all JSON):
//
//	GET  /healthz                            liveness probe (ok/degraded/draining)
//	GET  /readyz                             readiness probe (admission + WAL health)
//	GET  /metrics                            request metrics
//	GET  /v1/relations                       list relations
//	POST /v1/relations                       create a relation
//	GET  /v1/relations/{name}                schema, declarations, advice
//	POST /v1/relations/{name}/declare        attach specializations
//	POST /v1/relations/{name}/insert         insert transaction
//	POST /v1/relations/{name}/elements:batch batched insert (one WAL frame, one epoch)
//	POST /v1/ingest/csv                      streaming CSV bulk load (?relation=...)
//	POST /v1/relations/{name}/delete         logical-delete transaction
//	POST /v1/relations/{name}/modify         modify transaction
//	POST /v1/relations/{name}/query          current/timeslice/rollback/asof
//	GET  /v1/relations/{name}/classify       infer specializations
//	GET  /v1/relations/{name}/explain        plan a query without running it
//	POST /v1/select                          raw tsql SELECT (or EXPLAIN SELECT)
//	GET  /v1/relations/{name}/select         cacheable SELECT (?query=..., revalidated ETag)
//	POST /v1/snapshot                        flush dirty relations to disk
//	GET  /v1/relations/{name}/integrity      Merkle tree size + signed root
//	GET  /v1/relations/{name}/integrity/proof        inclusion proof (?index=I)
//	GET  /v1/relations/{name}/integrity/consistency  append-only proof (?from=M)
//	POST /v1/relations/{name}/verify         synchronous scrub + repair
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/wire"
)

// Config parameterizes a server.
type Config struct {
	// Catalog is the relation catalog to serve. Required.
	Catalog *catalog.Catalog
	// RequestTimeout bounds one request's handling; 0 means 15s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps a request body; 0 means 1 MiB.
	MaxBodyBytes int64
	// IngestMaxBytes caps the streaming CSV ingest body, which is a bulk
	// load by construction and must not sit under the JSON cap; 0 means
	// 1 GiB.
	IngestMaxBytes int64
	// Admission configures the per-class overload valve (admission.go).
	// The zero value enables it with the class defaults.
	Admission AdmissionConfig
	// Follower, when set, marks this server as a read-only replica: every
	// response carries the X-Tsdbd-Staleness-Ms bound once the follower
	// has synced, /readyz stays not-ready until that first sync, and
	// /metrics reports the applying side of replication.
	Follower *repl.Follower
	// ScrubInterval paces the background integrity scrubber (one full
	// pass per interval, started by RunScrubber); 0 disables it.
	ScrubInterval time.Duration
	// ScrubRate caps scrub read bandwidth in bytes/sec; 0 is unlimited.
	ScrubRate int64
}

// Server is the HTTP face of a catalog.
type Server struct {
	cat     *catalog.Catalog
	metrics *Metrics
	cfg     Config
	handler http.Handler
	adm     *admission
	// streamer serves the WAL-shipping replication feed; nil without a WAL.
	streamer *repl.Streamer
	// scrubber walks sealed artifacts against their checksums; nil when
	// the catalog runs with integrity tracking disabled.
	scrubber *integrity.Scrubber
	// draining flips once at the start of graceful shutdown: in-flight
	// requests complete, new non-probe requests get a clean "unavailable".
	draining atomic.Bool
	// CSV-ingest flush-reason counters (ingest.go): batches flushed on
	// the size cap, the time cap, and end of stream.
	ingFlushSize atomic.Uint64
	ingFlushTime atomic.Uint64
	ingFlushEOF  atomic.Uint64
	// bodies holds the buffers responses are encoded into, on the server and
	// not in wire's pool: the collector empties that between two large
	// answers, and a ≈ 300 KB reservation was allocated and zeroed for each.
	bodies wire.BufferList
}

// New builds a server over the catalog.
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		panic("server: nil catalog")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.IngestMaxBytes <= 0 {
		cfg.IngestMaxBytes = 1 << 30
	}
	s := &Server{cat: cfg.Catalog, metrics: NewMetrics(), cfg: cfg}
	s.adm = newAdmission(cfg.Admission)
	if w := cfg.Catalog.WAL(); w != nil {
		s.streamer = repl.NewStreamer(w)
	}
	if cfg.Catalog.IntegrityEnabled() {
		s.scrubber = cfg.Catalog.NewScrubber(cfg.ScrubRate)
	}

	// classProbe marks endpoints that bypass admission and draining: an
	// overloaded or shutting-down server must still answer probes.
	const classProbe = AdmissionClass(-1)

	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.wrap("health", classProbe, s.handleHealth))
	mux.Handle("GET /readyz", s.wrap("ready", classProbe, s.handleReady))
	mux.Handle("GET /metrics", s.wrap("metrics", classProbe, s.handleMetrics))
	mux.Handle("GET /v1/relations", s.wrap("list", ClassRead, s.handleList))
	mux.Handle("POST /v1/relations", s.wrap("create", ClassWrite, s.handleCreate))
	mux.Handle("GET /v1/relations/{name}", s.wrap("info", ClassRead, s.handleInfo))
	mux.Handle("POST /v1/relations/{name}/declare", s.wrap("declare", ClassWrite, s.handleDeclare))
	mux.Handle("POST /v1/relations/{name}/insert", s.wrap("insert", ClassWrite, s.handleInsert))
	mux.Handle("POST /v1/relations/{name}/elements:batch",
		s.wrapOpts("insert_batch", ClassWrite, endpointOpts{weight: batchWeight}, s.handleInsertBatch))
	mux.Handle("POST /v1/ingest/csv",
		s.wrapOpts("ingest_csv", ClassWrite, endpointOpts{weight: batchWeight, bodyCap: cfg.IngestMaxBytes}, s.handleIngestCSV))
	mux.Handle("POST /v1/relations/{name}/delete", s.wrap("delete", ClassWrite, s.handleDelete))
	mux.Handle("POST /v1/relations/{name}/modify", s.wrap("modify", ClassWrite, s.handleModify))
	mux.Handle("POST /v1/relations/{name}/query", s.wrap("query", ClassRead, s.handleQuery))
	mux.Handle("GET /v1/relations/{name}/query", s.wrap("query", ClassRead, s.handleQueryGet))
	mux.Handle("GET /v1/relations/{name}/classify", s.wrap("classify", ClassRead, s.handleClassify))
	mux.Handle("GET /v1/relations/{name}/explain", s.wrap("explain", ClassRead, s.handleExplain))
	mux.Handle("POST /v1/select", s.wrap("select", ClassRead, s.handleSelect))
	mux.Handle("GET /v1/relations/{name}/select", s.wrap("select", ClassRead, s.handleSelectGet))
	mux.Handle("POST /v1/snapshot", s.wrap("snapshot", ClassAdmin, s.handleSnapshot))
	mux.Handle("GET /v1/relations/{name}/integrity", s.wrap("integrity", ClassRead, s.handleIntegrity))
	mux.Handle("GET /v1/relations/{name}/integrity/proof", s.wrap("integrity_proof", ClassRead, s.handleIntegrityProof))
	mux.Handle("GET /v1/relations/{name}/integrity/consistency", s.wrap("integrity_consistency", ClassRead, s.handleIntegrityConsistency))
	mux.Handle("POST /v1/relations/{name}/verify", s.wrap("verify", ClassAdmin, s.handleVerify))
	// Replication is infrastructure traffic: a follower must keep catching
	// up while the primary sheds client load or drains for shutdown, so
	// the feed rides the probe class.
	mux.Handle("GET /v1/repl/segments", s.wrap("repl_segments", classProbe, s.handleReplSegments))
	mux.Handle("GET /v1/repl/tail", s.wrap("repl_tail", classProbe, s.handleReplTail))
	mux.Handle("/", s.wrap("unknown", classProbe, func(*http.Request) (*response, *apiError) {
		return nil, errNotFound("no such endpoint")
	}))

	s.handler = mux
	return s
}

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain flips the server into graceful-shutdown mode: requests already
// executing run to completion, while every new non-probe request is
// refused with a typed "unavailable" (503 + Retry-After) instead of a
// hung or reset connection. Call it before http.Server.Shutdown so the
// listener keeps accepting long enough to answer cleanly.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// response is a handler's successful answer.
type response struct {
	status  int // 0 means 200
	body    any
	touched int // elements-touched accounting for metrics
	// etag, when set, is the response's cache validator (Server.validator).
	// A status of 304 sends it with no body.
	etag string
	// validated marks the answer to a conditional GET, and validation is
	// what revalidating its validator found: sent as HeaderValidation and
	// counted per endpoint.
	validated  bool
	validation catalog.Validation
}

// apiError is a handler failure with its HTTP mapping.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf(format, args...)}
}
func errNotFound(format string, args ...any) *apiError {
	return &apiError{http.StatusNotFound, wire.CodeNotFound, fmt.Sprintf(format, args...)}
}
func errUnavailable(format string, args ...any) *apiError {
	return &apiError{http.StatusServiceUnavailable, wire.CodeUnavailable, fmt.Sprintf(format, args...)}
}
func errOverloaded(format string, args ...any) *apiError {
	return &apiError{http.StatusTooManyRequests, wire.CodeOverloaded, fmt.Sprintf(format, args...)}
}

// mapError classifies an engine or catalog error into its HTTP form.
// Transactions rejected by a declared specialization are a normal outcome
// under enforcement — they map to 409 with the distinct "rejected" code so
// clients can tell a violation from a concurrency conflict. A poisoned
// WAL maps to 503 "read_only" (mutations are refused until restart), and
// a caller whose deadline expired mid-request gets 503 "unavailable".
func mapError(err error) *apiError {
	switch {
	case errors.Is(err, catalog.ErrReadOnly):
		return &apiError{http.StatusServiceUnavailable, wire.CodeReadOnly, err.Error()}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return errUnavailable("request abandoned: %s", err.Error())
	case errors.Is(err, catalog.ErrNotFound), errors.Is(err, relation.ErrNoSuchElement):
		return &apiError{http.StatusNotFound, wire.CodeNotFound, err.Error()}
	case errors.Is(err, catalog.ErrExists), errors.Is(err, relation.ErrAlreadyDeleted),
		errors.Is(err, catalog.ErrIdemReuse):
		return &apiError{http.StatusConflict, wire.CodeConflict, err.Error()}
	case errors.Is(err, catalog.ErrBadName), errors.Is(err, relation.ErrWrongStampKind):
		return &apiError{http.StatusBadRequest, wire.CodeBadRequest, err.Error()}
	case strings.Contains(err.Error(), "rejected"),
		strings.Contains(err.Error(), "violates declaration"):
		return &apiError{http.StatusConflict, wire.CodeRejected, err.Error()}
	default:
		return errBadRequest("%s", err.Error())
	}
}

// endpointOpts tunes wrap for endpoints outside the common envelope:
// batch mutations weight their admission by request size, and the CSV
// ingest stream carries a far larger body cap than JSON endpoints.
type endpointOpts struct {
	// weight derives the request's admission weight; nil means 1.
	weight func(*http.Request) int
	// bodyCap overrides Config.MaxBodyBytes for this endpoint; 0 keeps it.
	bodyCap int64
}

// batchWeight estimates a batch request's admission weight from its
// declared body size, before any decoding: roughly one write slot per
// 2 KiB of payload (a handful of JSON-encoded elements), clamped by the
// gate to the class limit. Chunked uploads (unknown length) are assumed
// wide — they are bulk loads by construction.
func batchWeight(r *http.Request) int {
	if r.ContentLength < 0 {
		return 8
	}
	return 1 + int(r.ContentLength/2048)
}

// wrap adds the per-endpoint envelope: the request deadline (deadline.go),
// the draining check, class admission, body size cap, JSON rendering, panic
// containment, and metrics accounting. Probe endpoints (class < 0) skip
// draining and admission so the server can always describe its own state.
func (s *Server) wrap(name string, class AdmissionClass, fn func(*http.Request) (*response, *apiError)) http.Handler {
	return s.wrapOpts(name, class, endpointOpts{}, fn)
}

// wrapOpts is wrap with per-endpoint overrides.
func (s *Server) wrapOpts(name string, class AdmissionClass, o endpointOpts, fn func(*http.Request) (*response, *apiError)) http.Handler {
	return s.bounded(name, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		bodyCap := s.cfg.MaxBodyBytes
		if o.bodyCap > 0 {
			bodyCap = o.bodyCap
		}
		r.Body = http.MaxBytesReader(w, r.Body, bodyCap)

		var aerr *apiError
		var res *response
		switch {
		case class >= 0 && s.draining.Load():
			aerr = errUnavailable("server is draining")
		case class >= 0 && !s.adm.disabled:
			g := s.adm.gates[class]
			weight := 1
			if o.weight != nil {
				weight = o.weight(r)
			}
			ok, cause := g.acquireN(r.Context(), weight)
			if !ok {
				switch cause {
				case shedQueueFull:
					aerr = errOverloaded("%s admission queue full", class)
				case shedCanceled:
					aerr = errUnavailable("deadline expired in %s admission queue", class)
				default:
					aerr = errUnavailable("%s admission wait exceeded %s", class, g.maxWait)
				}
				break
			}
			defer g.releaseN(weight)
			fallthrough
		default:
			res, aerr = func() (res *response, aerr *apiError) {
				defer func() {
					if p := recover(); p != nil {
						res = nil
						aerr = &apiError{http.StatusInternalServerError, wire.CodeInternal,
							fmt.Sprintf("internal error: %v", p)}
					}
				}()
				return fn(r)
			}()
		}
		touched := 0
		if res != nil {
			touched = res.touched
		}
		// A follower stamps its staleness bound on every response (success
		// or error) once it has synced; before the first catch-up no bound
		// exists, so no header is sent and routers treat the node as
		// unboundedly stale.
		if f := s.cfg.Follower; f != nil {
			if ms, ok := f.StalenessMs(time.Now()); ok {
				w.Header().Set(wire.HeaderStaleness, strconv.FormatInt(ms, 10))
			}
		}
		var sent int
		var enc time.Duration
		failed := aerr != nil
		if aerr != nil {
			// Shed and degraded responses are retryable after a pause; say so.
			if aerr.status == http.StatusTooManyRequests || aerr.status == http.StatusServiceUnavailable {
				w.Header().Set(wire.HeaderRetryAfter, "1")
			}
			sent, enc, _ = writeJSON(&s.bodies, w, aerr.status, wire.ErrorBody{Error: wire.ErrorDetail{
				Code: aerr.code, Message: aerr.message,
			}})
		} else {
			status := res.status
			if status == 0 {
				status = http.StatusOK
			}
			if res.etag != "" {
				w.Header().Set(wire.HeaderETag, res.etag)
			}
			if res.validated {
				w.Header().Set(wire.HeaderValidation, res.validation.String())
			}
			if status == http.StatusNotModified {
				w.WriteHeader(status)
			} else {
				var err error
				sent, enc, err = writeJSON(&s.bodies, w, status, res.body)
				failed = err != nil
			}
		}
		s.metrics.Record(name, time.Since(start), touched, failed, sent, enc)
		if res != nil && res.validated {
			s.metrics.RecordValidation(name, res.validation)
		}
	}))
}

// deadlineBudget parses the client's remaining-budget header.
func deadlineBudget(r *http.Request) (int64, bool) {
	h := r.Header.Get(wire.HeaderDeadline)
	if h == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	return ms, true
}

// idemKey extracts a mutation's idempotency key (empty when absent).
func idemKey(r *http.Request) string {
	return r.Header.Get(wire.HeaderIdempotencyKey)
}

// writeJSON renders the body into one of the server's buffers, so the hot
// read path allocates no per-request encoder scratch and every response
// carries an exact Content-Length. A body with its own encoder (wire.Appender: the
// shapes that carry elements or rows) appends straight into the buffer's
// array; everything else goes through encoding/json. Both produce the
// same bytes, newline included. It reports the body bytes written and
// the time spent encoding them, for the endpoint's metrics.
//
// The one encoding error there is — a non-finite float already in a
// store, which JSON cannot spell — answers a typed 500 and is returned.
// So is a failed write: http.ErrHandlerTimeout when the deadline has
// already answered this request, or the socket's own error. The body is
// encoded whole before the status is committed; the request deadline
// (deadline.go) relies on nothing slow following a commit.
func writeJSON(bufs *wire.BufferList, w http.ResponseWriter, status int, body any) (int, time.Duration, error) {
	start := time.Now()
	buf := bufs.Get()
	var out []byte
	var err error
	switch b := body.(type) {
	case wire.QueryBody:
		// A large answer made mostly of bytes that exist already is measured
		// and then copied to the connection through the buffer, never
		// assembled: see streamBuffer. Any other is appended, as below.
		var stream int
		if out, stream, err = b.Render(buf.AvailableBuffer()); stream > 0 {
			defer bufs.Put(buf)
			buf.Grow(streamBuffer)
			enc := time.Since(start)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(stream))
			w.WriteHeader(status)
			n, err := b.StreamJSON(w, buf.AvailableBuffer())
			return n, enc, err
		}
		out = append(out, '\n')
	case wire.Appender:
		out, err = b.AppendJSON(buf.AvailableBuffer())
		out = append(out, '\n')
	default:
		err = json.NewEncoder(buf).Encode(body)
		out = buf.Bytes()
	}
	if cap(out) > buf.Cap() {
		// The codec outgrew the buffer's array and moved to its own; keep
		// that one, so the next large response finds room.
		buf = bytes.NewBuffer(out[:0])
	}
	defer bufs.Put(buf)
	if err != nil {
		n, enc, _ := writeJSON(bufs, w, http.StatusInternalServerError, wire.ErrorBody{Error: wire.ErrorDetail{
			Code: wire.CodeInternal, Message: "response encoding failed",
		}})
		return n, enc, err
	}
	enc := time.Since(start)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(status)
	n, err := w.Write(out)
	return n, enc, err
}

// streamBuffer is the buffer a streamed answer passes through. An answer of
// megabytes that is seven eighths copies of chunk images (wire.QueryBody.Render) —
// a `current` over a relation of 20,000 elements is 4 MB, once every hundred
// requests on tsbench's ledger — used to be assembled in a buffer of its own
// size: too large to keep (the lists cap at 1 MB), so allocated, zeroed and
// faulted in each time, which was a tenth of the server's CPU under that mix
// and, kept, 4 MB of live heap. Its length is known to the byte before the
// first one is written and nothing that can fail is left to do, so the status
// is committed and the body copied to the connection in pieces this size:
// the body is still encoded whole before the commit, in the sense deadline.go
// needs — nothing slow or fallible follows it but the socket.
const streamBuffer = 256 << 10

// validator renders an epoch of a relation as an HTTP entity tag:
// "<name>-<epoch>.<lineage>". The catalog's lineage token tells this boot's
// epochs from another boot's or another node's, which restart and repeat.
func (s *Server) validator(name string, epoch uint64) string {
	return `"` + name + `-` + strconv.FormatUint(epoch, 10) + `.` + s.cat.Lineage() + `"`
}

// listedEpoch reads an If-None-Match header: the newest epoch among the
// validators it lists that this server issued for the relation in this
// boot (ok), and whether it is the wildcard. Comparison is weak (RFC 9110
// §13.1.2): W/"x" names what "x" does. Nothing is allocated.
func (s *Server) listedEpoch(header, name string) (epoch uint64, ok, wildcard bool) {
	lineage := s.cat.Lineage()
	for header != "" {
		var tag string
		tag, header, _ = strings.Cut(header, ",")
		tag = strings.TrimSpace(tag)
		if tag == "*" {
			wildcard = true
			continue
		}
		tag = strings.TrimPrefix(tag, "W/")
		if len(tag) < 2 || tag[0] != '"' || tag[len(tag)-1] != '"' {
			continue
		}
		tag = tag[1 : len(tag)-1]
		if len(tag) <= len(name) || tag[:len(name)] != name || tag[len(name)] != '-' {
			continue
		}
		num, lin, found := strings.Cut(tag[len(name)+1:], ".")
		if !found || lin != lineage {
			continue
		}
		if ep, err := strconv.ParseUint(num, 10, 64); err == nil && (!ok || ep > epoch) {
			epoch, ok = ep, true
		}
	}
	return epoch, ok, wildcard
}

// conditional answers a conditional GET from the relation's change log when
// it can: 304 with the current validator when no change since the newest
// validator the request lists meets the query's footprint fp. Otherwise it
// returns no 304 and the start of the computed answer's response: what
// revalidation found, or nothing for a request without If-None-Match.
func (s *Server) conditional(r *http.Request, e *catalog.Entry, name string, fp plan.Query) (notModified *response, answer response) {
	inm := r.Header.Get(wire.HeaderIfNoneMatch)
	if inm == "" {
		return nil, answer
	}
	listed, ok, wildcard := s.listedEpoch(inm, name)
	var now uint64
	answer.validated, answer.validation = true, catalog.ValidationUnknown
	switch {
	case wildcard:
		now, answer.validation = e.Epoch(), catalog.ValidationSame
	case ok:
		now, answer.validation = e.Revalidate(listed, fp)
	}
	if answer.validation.NotModified() {
		answer.status, answer.etag = http.StatusNotModified, s.validator(name, now)
		return &answer, answer
	}
	return nil, answer
}

// kindQuery is the planner's query for one of the engine's query kinds —
// also its footprint (plan.Query.Meets); false for an unknown kind.
func kindQuery(kind string, vt, tt int64) (plan.Query, bool) {
	switch kind {
	case wire.QueryCurrent:
		return plan.Query{Kind: plan.QCurrent}, true
	case wire.QueryTimeslice:
		return plan.Query{Kind: plan.QTimeslice, VTLo: vt, VTHi: vt + 1}, true
	case wire.QueryRollback:
		return plan.Query{Kind: plan.QRollback, TT: tt}, true
	case wire.QueryAsOf:
		return plan.Query{Kind: plan.QAsOf, VTLo: vt, VTHi: vt + 1, TT: tt}, true
	}
	return plan.Query{}, false
}

// decode reads a JSON request body, mapping oversized bodies to 413 and
// malformed ones to 400. Unknown fields are rejected so client typos fail
// loudly instead of silently dropping options.
//
// A request with its own parser (wire.Parser: the insert, query, select,
// delete, modify and batch bodies) is read whole and parsed by it alone:
// it accepts and refuses what the strict json.Decoder does, in the same
// words. A body that ended in a read error rather than in its own bytes is
// refused for that error, as the decoder refuses it. The other bodies
// (create, declare) are decodeJSON's.
func decode(r *http.Request, into any) *apiError {
	p, ok := into.(wire.Parser)
	if !ok {
		return decodeJSON(r.Body, into)
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	// On the Content-Length's word alone, no more than the default body
	// cap is reserved; MaxBytesReader polices the real one.
	read := wire.ReadBody(buf, r.Body, r.ContentLength, 1<<20)
	err := p.ParseJSON(buf.Bytes())
	if refused, ok := err.(wire.BatchError); ok {
		return errBadRequest("%s", string(refused))
	}
	if read != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		err = read
	}
	return jsonError(err)
}

// decodeJSON is the strict json.Decoder for the bodies without a parser.
func decodeJSON(body io.Reader, into any) *apiError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return jsonError(dec.Decode(into))
}

// jsonError is the status and message of a body refused as JSON.
func jsonError(err error) *apiError {
	if err == nil {
		return nil
	}
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		return &apiError{http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
	case errors.Is(err, io.EOF):
		return errBadRequest("empty request body")
	}
	return &apiError{http.StatusBadRequest, wire.CodeBadRequest, "malformed request body: " + err.Error()}
}

func (s *Server) entry(r *http.Request) (*catalog.Entry, *apiError) {
	name := r.PathValue("name")
	e, err := s.cat.Get(name)
	if err != nil {
		return nil, mapError(err)
	}
	return e, nil
}

// handleHealth reports actual liveness state, not an unconditional OK:
// "draining" once graceful shutdown began, "degraded" while the WAL is
// poisoned (reads serve, mutations refused), "ok" otherwise. The original
// fields keep their shape; the state fields are additive and omitted when
// healthy.
func (s *Server) handleHealth(*http.Request) (*response, *apiError) {
	out := wire.HealthResponse{
		Status:        "ok",
		Relations:     s.cat.Len(),
		UptimeSeconds: int64(time.Since(s.metrics.start) / time.Second),
		Role:          s.role(),
	}
	if err := s.cat.Degraded(); err != nil {
		out.Status = "degraded"
		out.ReadOnly = true
		out.WAL = err.Error()
	}
	if s.cat.Follower() {
		// Read-only by design, not degraded: the follower is healthy while
		// it serves reads and tails the primary.
		out.ReadOnly = true
	}
	if s.draining.Load() {
		out.Status = "draining"
		out.Draining = true
	}
	return &response{body: out}, nil
}

// handleReady is the readiness probe: 200 while the server should keep
// receiving traffic, 503 (with reasons) when it should be rotated out —
// draining, WAL poisoned, or an admission queue saturated.
func (s *Server) handleReady(*http.Request) (*response, *apiError) {
	out := wire.ReadyResponse{Ready: true, Status: "ok"}
	if err := s.cat.Degraded(); err != nil {
		out.Ready = false
		out.Status = "degraded"
		out.Reasons = append(out.Reasons, err.Error())
	}
	// A follower that has never caught up would serve arbitrarily stale
	// reads with no staleness bound; keep it out of rotation until its
	// first sync. After that it stays ready even through reconnects — the
	// staleness header tells clients how stale is stale.
	if f := s.cfg.Follower; f != nil && !f.Stats().Synced {
		out.Ready = false
		out.Status = "syncing"
		out.Reasons = append(out.Reasons, "follower has not completed its first catch-up")
	}
	if sat := s.adm.saturated(); len(sat) > 0 {
		out.Ready = false
		if out.Status == "ok" {
			out.Status = "saturated"
		}
		for _, c := range sat {
			out.Reasons = append(out.Reasons, fmt.Sprintf("%s admission queue saturated", c))
		}
	}
	if s.draining.Load() {
		out.Ready = false
		out.Status = "draining"
		out.Reasons = append(out.Reasons, "server is draining")
	}
	status := http.StatusOK
	if !out.Ready {
		status = http.StatusServiceUnavailable
	}
	return &response{status: status, body: out}, nil
}

func (s *Server) handleMetrics(*http.Request) (*response, *apiError) {
	rep := s.metrics.Report()
	if w := s.cat.WAL(); w != nil {
		st := w.Stats()
		rep.WAL = &wire.WALMetrics{
			AppendedRecords:   st.Appended,
			Fsyncs:            st.Fsyncs,
			MeanBatch:         st.MeanBatch(),
			MaxBatch:          st.MaxBatch,
			ReplayedRecords:   st.Replayed,
			LastReplayUS:      st.ReplayDuration.Microseconds(),
			Segments:          st.Segments,
			LastLSN:           st.LastLSN,
			DurableLSN:        st.DurableLSN,
			TruncatedSegments: st.TruncatedSegments,
			VerifyFailures:    st.VerifyFailures,
		}
	}
	rep.Admission = s.adm.report()
	if err := s.cat.Degraded(); err != nil {
		rep.Degraded = &wire.DegradedMetrics{ReadOnly: true, Cause: err.Error()}
	}
	rep.Replication = s.replicationMetrics()
	rep.Integrity = s.integrityMetrics()
	rep.Runtime = runtimeMetrics()
	var batch wire.BatchMetrics
	var img wire.ImageMetrics
	var chunks wire.ChunkMetrics
	var ing wire.IngestMetrics
	history := s.cat.Migrations()
	for _, name := range s.cat.Names() {
		e, err := s.cat.Get(name)
		if err != nil {
			continue
		}
		if rep.Physical == nil {
			rep.Physical = make(map[string]wire.PhysicalInfo)
		}
		pb := physicalBody(e.Physical(), history[name])
		integrityProvenance(&pb, e)
		rep.Physical[name] = pb
		for kind, ks := range e.PlanStats() {
			if rep.Plans == nil {
				rep.Plans = make(map[string]wire.PlanMetrics)
			}
			pm := rep.Plans[kind]
			pm.Requests += uint64(ks.Queries)
			pm.Touched += uint64(ks.Touched)
			rep.Plans[kind] = pm
		}
		bs := e.BatchStats()
		batch.Rows += bs.Rows
		batch.RunsMerged += bs.RunsMerged
		batch.GroupsMerged += bs.GroupsMerged
		batch.RunsFolded += bs.RunsFolded
		batch.ChunksPruned += bs.ChunksPruned
		batch.Rebuilt += bs.Rebuilt
		batch.WindowsRefolded += bs.WindowsRefolded
		batch.WindowsReused += bs.WindowsReused
		chunks.Partials.Hit += bs.PartialHits
		chunks.Partials.Built += bs.PartialsBuilt
		chunks.Groups.Hit += bs.GroupHits
		chunks.Groups.Built += bs.GroupsBuilt
		ims := e.ImageStats()
		chunks.Images.Hit += ims.Hits
		chunks.Images.Built += ims.Built
		img.SpansSpliced += ims.SpansSpliced
		img.SpansEncoded += ims.SpansEncoded
		is := e.IngestStats()
		ing.Batches += is.Batches
		ing.BatchedElements += is.Elements
	}
	if batch != (wire.BatchMetrics{}) {
		rep.Batch = &batch
	}
	if img != (wire.ImageMetrics{}) {
		rep.Images = &img
	}
	chunks.Bytes = s.cat.Cache().Stats().ChunkBytes
	if chunks != (wire.ChunkMetrics{}) {
		rep.Chunks = &chunks
	}
	ing.FlushSize = s.ingFlushSize.Load()
	ing.FlushTime = s.ingFlushTime.Load()
	ing.FlushEOF = s.ingFlushEOF.Load()
	if ing.Batches > 0 {
		ing.MeanBatch = float64(ing.BatchedElements) / float64(ing.Batches)
		rep.Ingest = &ing
	}
	if c := s.cat.Cache(); c != nil {
		st := c.Stats()
		rep.QueryCache = &wire.QueryCacheMetrics{
			Hits:        st.Hits,
			Misses:      st.Misses,
			Revalidated: st.Revalidated,
			Evictions:   st.Evictions,
			Entries:     st.Entries,
			Bytes:       st.Bytes,
			Capacity:    st.Capacity,
		}
	}
	return &response{body: rep}, nil
}

func (s *Server) handleList(*http.Request) (*response, *apiError) {
	out := wire.ListResponse{Relations: []wire.RelationSummary{}}
	for _, name := range s.cat.Names() {
		e, err := s.cat.Get(name)
		if err != nil {
			continue
		}
		info := e.Info()
		out.Relations = append(out.Relations, wire.RelationSummary{
			Name:         name,
			ValidTime:    wire.FromSchema(info.Schema).ValidTime,
			Versions:     info.Versions,
			Declarations: len(info.Declarations),
		})
	}
	return &response{body: out}, nil
}

// classNames renders a class set for the wire.
func classNames(cs []core.Class) []string {
	if len(cs) == 0 {
		return nil
	}
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// physicalBody converts a catalog physical-design snapshot for the wire,
// with the relation's migration history.
func physicalBody(p catalog.Physical, history []wire.MigrationInfo) wire.PhysicalInfo {
	out := wire.PhysicalInfo{
		Org:            p.Org.String(),
		Source:         p.Source,
		Reasons:        p.Reasons,
		Declared:       classNames(p.Declared),
		Inferred:       classNames(p.Inferred),
		Adopted:        classNames(p.Adopted),
		Migrations:     p.Migrations,
		History:        history,
		StoreBytes:     p.StoreBytes,
		SealedRuns:     p.Compaction.Runs,
		SealedElements: p.Compaction.Sealed,
		PackedBytes:    p.Compaction.PackedBytes,
		Tracker: &wire.TrackerInfo{
			Elements:     p.Tracker.Elements,
			TTViolations: p.Tracker.TTViolations,
			VTViolations: p.Tracker.VTViolations,
			Overlaps:     p.Tracker.Overlaps,
			OffsetLo:     p.Tracker.OffsetLo,
			OffsetHi:     p.Tracker.OffsetHi,
			VTUnit:       p.Tracker.VTUnit,
		},
	}
	return out
}

func (s *Server) infoBody(e *catalog.Entry) wire.RelationInfo {
	info := e.Info()
	phys := physicalBody(info.Physical, s.cat.Migrations()[e.Name()])
	integrityProvenance(&phys, e)
	out := wire.RelationInfo{
		Schema:       wire.FromSchema(info.Schema),
		Versions:     info.Versions,
		Declarations: wire.FromDescriptors(info.Declarations),
		Advice: wire.Advice{
			Store:   info.Advice.Store.String(),
			Reasons: info.Advice.Reasons,
			Source:  info.Advice.Source,
		},
		Physical: &phys,
	}
	if len(info.Plans) > 0 {
		out.Plans = make(map[string]wire.PlanMetrics, len(info.Plans))
		for kind, ks := range info.Plans {
			out.Plans[kind] = wire.PlanMetrics{
				Requests: uint64(ks.Queries),
				Touched:  uint64(ks.Touched),
			}
		}
	}
	return out
}

func (s *Server) handleCreate(r *http.Request) (*response, *apiError) {
	var req wire.CreateRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	schema, err := req.Schema.ToSchema()
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	e, err := s.cat.Create(schema)
	if err != nil {
		return nil, mapError(err)
	}
	return &response{status: http.StatusCreated, body: s.infoBody(e)}, nil
}

func (s *Server) handleInfo(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	return &response{body: s.infoBody(e)}, nil
}

func (s *Server) handleDeclare(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.DeclareRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	descs, err := wire.ToDescriptors(req.Constraints)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	if err := e.Declare(descs); err != nil {
		return nil, mapError(err)
	}
	info := e.Info()
	return &response{body: wire.DeclareResponse{
		Declared:     len(descs),
		Declarations: wire.FromDescriptors(info.Declarations),
	}}, nil
}

func (s *Server) handleInsert(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.InsertRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	ins, err := req.ToInsertion()
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	el, err := e.InsertKeyed(r.Context(), ins, idemKey(r))
	if err != nil {
		return nil, mapError(err)
	}
	return &response{
		status:  http.StatusCreated,
		body:    wire.ElementBody{Element: el},
		touched: 1,
	}, nil
}

func (s *Server) handleDelete(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.DeleteRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	if req.ES == 0 {
		return nil, errBadRequest("missing element surrogate")
	}
	if err := e.DeleteKeyed(r.Context(), surrogate.Surrogate(req.ES), idemKey(r)); err != nil {
		return nil, mapError(err)
	}
	return &response{body: struct{}{}, touched: 1}, nil
}

func (s *Server) handleModify(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.ModifyRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	if req.ES == 0 {
		return nil, errBadRequest("missing element surrogate")
	}
	vt, err := req.VT.ToTimestamp()
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	vary, err := wire.ToValues(req.Varying)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	el, err := e.ModifyKeyed(r.Context(), surrogate.Surrogate(req.ES), vt, vary, idemKey(r))
	if err != nil {
		return nil, mapError(err)
	}
	return &response{body: wire.ElementBody{Element: el}, touched: 2}, nil
}

// runQueryKind dispatches one of the engine's query kinds against an entry.
// The answer stays where the store holds it: the body encodes it from there.
func (s *Server) runQueryKind(ctx context.Context, e *catalog.Entry, kind string, vt, tt int64) (catalog.QueryResult, *apiError) {
	pq, ok := kindQuery(kind, vt, tt)
	if !ok {
		return catalog.QueryResult{}, errBadRequest("unknown query kind %q (want %s|%s|%s|%s)",
			kind, wire.QueryCurrent, wire.QueryTimeslice, wire.QueryRollback, wire.QueryAsOf)
	}
	res, err := e.AnswerCtx(ctx, pq)
	if err != nil {
		return catalog.QueryResult{}, mapError(err)
	}
	return res, nil
}

func queryResponseBody(res *catalog.QueryResult) wire.QueryBody {
	return wire.QueryBody{
		Answer:   *res.Answer(),
		Images:   res.Images,
		Plan:     res.Plan,
		PlanNode: wire.FromPlanNode(res.Node),
		Touched:  res.Touched,
		Epoch:    res.Epoch,
	}
}

func (s *Server) handleQuery(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.QueryRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	res, aerr := s.runQueryKind(r.Context(), e, req.Kind, req.VT, req.TT)
	if aerr != nil {
		return nil, aerr
	}
	return &response{body: queryResponseBody(&res), touched: res.Touched}, nil
}

// handleQueryGet is the cache-aware form of the query endpoint: the same
// kinds as POST, addressed by query parameters so intermediaries can cache,
// with a validator naming the epoch the answer was computed at. A client
// whose If-None-Match names an epoch since which no change met the query
// gets 304 and no query runs.
func (s *Server) handleQueryGet(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	name := r.PathValue("name")
	params := r.URL.Query()
	vt, aerr := parseInt64Param(params.Get("vt"), "vt")
	if aerr != nil {
		return nil, aerr
	}
	tt, aerr := parseInt64Param(params.Get("tt"), "tt")
	if aerr != nil {
		return nil, aerr
	}
	kind := params.Get("kind")
	var out response
	if fp, ok := kindQuery(kind, vt, tt); ok { // an unknown kind is runQueryKind's to refuse
		var nm *response
		if nm, out = s.conditional(r, e, name, fp); nm != nil {
			return nm, nil
		}
	}
	res, aerr := s.runQueryKind(r.Context(), e, kind, vt, tt)
	if aerr != nil {
		return nil, aerr
	}
	out.body, out.touched, out.etag = queryResponseBody(&res), res.Touched, s.validator(name, res.Epoch)
	return &out, nil
}

// parseInt64Param parses an optional integer query parameter ("" is 0).
func parseInt64Param(v, key string) (int64, *apiError) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, errBadRequest("bad %s %q", key, v)
	}
	return n, nil
}

// handleExplain plans a query without running it. The query is given
// either as a full statement (?query=SELECT ...) or as the engine
// vocabulary (?kind=current|timeslice|rollback|asof&vt=...&tt=...).
func (s *Server) handleExplain(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	name := r.PathValue("name")
	params := r.URL.Query()

	// A plan reads the store's size, which every change moves, so its
	// validator holds for one epoch only: a client that revalidates with
	// If-None-Match at that epoch gets 304 without planning at all.
	// Anything else is planned afresh from one published view.
	epoch := e.Epoch()
	etag := s.validator(name, epoch)
	if inm := r.Header.Get(wire.HeaderIfNoneMatch); inm != "" {
		if listed, ok, wildcard := s.listedEpoch(inm, name); wildcard || ok && listed == epoch {
			return &response{status: http.StatusNotModified, etag: etag}, nil
		}
	}

	var node *plan.Node
	var echo string
	if src := params.Get("query"); src != "" {
		q, err := tsql.Parse(src)
		if err != nil {
			return nil, errBadRequest("%s", err.Error())
		}
		if q.Rel != name {
			return nil, errBadRequest("statement queries %q, endpoint addresses %q", q.Rel, name)
		}
		node = e.Explain(q)
		echo = src
	} else {
		kind := params.Get("kind")
		vt, aerr := parseInt64Param(params.Get("vt"), "vt")
		if aerr != nil {
			return nil, aerr
		}
		tt, aerr := parseInt64Param(params.Get("tt"), "tt")
		if aerr != nil {
			return nil, aerr
		}
		pq, ok := kindQuery(kind, vt, tt)
		if !ok {
			return nil, errBadRequest("need ?query=... or ?kind=%s|%s|%s|%s",
				wire.QueryCurrent, wire.QueryTimeslice, wire.QueryRollback, wire.QueryAsOf)
		}
		node = e.PlanFor(pq)
		echo = fmt.Sprintf("kind=%s vt=%d tt=%d", kind, vt, tt)
	}
	return &response{body: explainBody(name, echo, e, node), etag: etag}, nil
}

func (s *Server) handleClassify(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	rep, err := e.Classify()
	if err != nil {
		return nil, mapError(err)
	}
	out := wire.ClassifyResponse{Findings: []string{}, MostSpecific: []string{}}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, f.String())
	}
	for _, f := range rep.MostSpecific() {
		out.MostSpecific = append(out.MostSpecific, f.String())
	}
	return &response{body: out, touched: e.Info().Versions}, nil
}

func (s *Server) handleSelect(r *http.Request) (*response, *apiError) {
	var req wire.SelectRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	q, err := tsql.Parse(req.Query)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	e, err := s.cat.Get(q.Rel)
	if err != nil {
		return nil, mapError(err)
	}
	if q.Explain {
		return &response{body: explainBody(q.Rel, req.Query, e, e.Explain(q))}, nil
	}
	res, node, touched, err := e.SelectCtx(r.Context(), q)
	if err != nil {
		return nil, mapError(err)
	}
	return &response{body: selectBody(q, res, node, touched), touched: touched}, nil
}

// explainBody is both EXPLAIN endpoints' answer: the plan, and the
// organization it was planned for with its provenance, read from the
// published physical design — like planning itself, without the relation's
// lock, so EXPLAIN never queues behind a writer.
func explainBody(rel, query string, e *catalog.Entry, node *plan.Node) wire.ExplainResponse {
	p := e.Physical()
	return wire.ExplainResponse{
		Relation:    rel,
		Query:       query,
		Store:       p.Org.String(),
		StoreSource: p.Source,
		Plan:        wire.FromPlanNode(node),
		Rendered:    node.Render(),
	}
}

// selectBody renders a SELECT result for the wire. Aggregate statements
// also name the kernel that folded the chunks the memo could not answer,
// which is always the row kernel.
func selectBody(q *tsql.Query, res *tsql.Result, node *plan.Node, touched int) wire.SelectBody {
	out := wire.SelectBody{
		Columns: res.Columns,
		Rows:    res.Rows,
		Plan:    wire.FromPlanNode(node),
		Touched: touched,
	}
	if q.Group != nil {
		out.Engine = "row"
	}
	return out
}

// handleSelectGet is the cache-aware form of SELECT: the statement rides a
// query parameter so intermediaries can cache, with a validator naming the
// epoch of the view the answer was computed on — the same protocol as the
// GET query endpoint, the statement's footprint being its planner query
// (tsql.PlanQuery: the WHEN VALID window, AS OF's tt, everything for an
// Allen clause or none). A client whose If-None-Match names an epoch since
// which no change met the statement gets 304 and no query runs; aggregates
// are the intended tenant (their results are windows, not elements, so
// they are cheap to revalidate and expensive to recompute).
func (s *Server) handleSelectGet(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	name := r.PathValue("name")
	src := r.URL.Query().Get("query")
	if src == "" {
		return nil, errBadRequest("need ?query=SELECT ...")
	}
	q, err := tsql.Parse(src)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	if q.Rel != name {
		return nil, errBadRequest("statement queries %q, endpoint addresses %q", q.Rel, name)
	}
	if q.Explain {
		return nil, errBadRequest("EXPLAIN is not cacheable; use the explain endpoint")
	}
	nm, out := s.conditional(r, e, name, tsql.PlanQuery(q))
	if nm != nil {
		return nm, nil
	}
	res, node, touched, epoch, err := e.SelectEpochCtx(r.Context(), q)
	if err != nil {
		return nil, mapError(err)
	}
	out.body, out.touched, out.etag = selectBody(q, res, node, touched), touched, s.validator(name, epoch)
	return &out, nil
}

func (s *Server) handleSnapshot(*http.Request) (*response, *apiError) {
	n, err := s.cat.Snapshot()
	if err != nil {
		if errors.Is(err, catalog.ErrReadOnly) {
			return nil, mapError(err)
		}
		return nil, &apiError{http.StatusInternalServerError, wire.CodeInternal, err.Error()}
	}
	return &response{body: wire.SnapshotResponse{Saved: n}}, nil
}

// element import keeps the wire package conversions honest for interval
// relations; referenced here to make the dependency explicit.
var _ = element.EventStamp
