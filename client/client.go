// Package client is the typed Go client for tsdbd, the temporal-
// specialization database server. It mirrors the server's wire vocabulary
// (repro/internal/wire is re-exported through type aliases here so callers
// never import an internal package) and turns structured error responses
// back into *APIError values that carry the HTTP status and machine-
// readable code — a caller can distinguish a specialization-violating
// transaction (code "rejected") from a concurrency conflict or a bad
// request without string matching.
package client

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/wire"
)

// Wire vocabulary re-exports: the client speaks exactly the server's types.
type (
	Value            = wire.Value
	Timestamp        = wire.Timestamp
	Element          = wire.Element
	Column           = wire.Column
	Schema           = wire.Schema
	Duration         = wire.Duration
	Descriptor       = wire.Descriptor
	InsertRequest    = wire.InsertRequest
	QueryRequest     = wire.QueryRequest
	QueryResponse    = wire.QueryResponse
	SelectResponse   = wire.SelectResponse
	PlanNode         = wire.PlanNode
	PlanMetrics      = wire.PlanMetrics
	ExplainResponse  = wire.ExplainResponse
	RelationSummary  = wire.RelationSummary
	RelationInfo     = wire.RelationInfo
	ClassifyResponse = wire.ClassifyResponse
	HealthResponse   = wire.HealthResponse
	ReadyResponse    = wire.ReadyResponse
	MetricsResponse  = wire.MetricsResponse
	WALMetrics       = wire.WALMetrics
	DeclareResponse  = wire.DeclareResponse
	PhysicalInfo     = wire.PhysicalInfo
	MigrationInfo    = wire.MigrationInfo
	TrackerInfo      = wire.TrackerInfo

	BatchInsertRequest  = wire.BatchInsertRequest
	BatchItem           = wire.BatchItem
	BatchInsertResponse = wire.BatchInsertResponse
	IngestResponse      = wire.IngestResponse
	IngestMetrics       = wire.IngestMetrics
	ImageMetrics        = wire.ImageMetrics
	ChunkMetrics        = wire.ChunkMetrics
)

// Value constructors, re-exported for ergonomic insert payloads.
var (
	Null   = wire.Null
	String = wire.String
	Int    = wire.Int
	Float  = wire.Float
	Bool   = wire.Bool
	Time   = wire.Time

	EventAt = wire.EventAt
	SpanOf  = wire.SpanOf
)

// Query kinds.
const (
	QueryCurrent   = wire.QueryCurrent
	QueryTimeslice = wire.QueryTimeslice
	QueryRollback  = wire.QueryRollback
	QueryAsOf      = wire.QueryAsOf
)

// Error codes a server may return in an APIError.
const (
	CodeBadRequest  = wire.CodeBadRequest
	CodeNotFound    = wire.CodeNotFound
	CodeConflict    = wire.CodeConflict
	CodeRejected    = wire.CodeRejected
	CodeTooLarge    = wire.CodeTooLarge
	CodeInternal    = wire.CodeInternal
	CodeOverloaded  = wire.CodeOverloaded
	CodeUnavailable = wire.CodeUnavailable
	CodeReadOnly    = wire.CodeReadOnly
)

// APIError is a structured error response from the server.
type APIError struct {
	Status  int    // HTTP status
	Code    string // machine-readable code, e.g. "rejected"
	Message string
	// RetryAfter is the server's Retry-After hint, when it sent one
	// (shed and unavailable responses do). Zero means no hint.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("tsdbd: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// IsRejected reports whether err is a transaction rejection by a declared
// specialization — the expected failure mode under enforcement.
func IsRejected(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeRejected
}

// IsNotFound reports whether err is a missing relation or element.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeNotFound
}

// IsOverloaded reports whether err is an admission-control shed: the
// server bounced the request on arrival because the class's wait queue
// was full. Retryable after backoff.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeOverloaded
}

// IsUnavailable reports whether err is a clean pre-execution refusal —
// the server is draining, or the request waited out its admission
// budget. Retryable (possibly against another replica).
func IsUnavailable(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeUnavailable
}

// IsReadOnly reports whether err is the typed read-only refusal: the
// process cannot accept writes, because its WAL has poisoned or because
// it is a follower replica. Not retryable against the same process —
// route the mutation to the primary instead.
func IsReadOnly(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeReadOnly
}

// IsConnRefused reports whether err is a refused TCP connection — the
// node is down or not yet listening. For reads through a Router this is
// the signal to try the next node on the ring; nothing reached the
// server, so nothing executed.
func IsConnRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// RetryPolicy configures automatic retries for requests that fail with
// a retryable signal: typed "overloaded"/"unavailable" responses always;
// transport errors only for reads and for mutations carrying an
// idempotency key (which the client attaches automatically, so a replay
// of an already-applied mutation returns the original element instead
// of minting a second event in transaction time). When the client is a
// node of a Router, a connection-refused read does not retry here at
// all — it surfaces immediately so the router can retry it against the
// next node on the ring, where the attempt can actually succeed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// <= 1 disables retries.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (doubled per attempt,
	// then full-jittered). Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff sleep. Default 2s.
	MaxBackoff time.Duration
	// Budget bounds the total time spent across all attempts of one
	// call, backoffs included. Default 15s.
	Budget time.Duration
}

// DefaultRetryPolicy is a sensible starting point: 4 attempts, 50ms
// base backoff with full jitter capped at 2s, 15s total budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Budget:      15 * time.Second,
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 15 * time.Second
	}
	return p
}

// Client talks to one tsdbd server.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
	// qcache holds the conditional-request state for QueryCached: the
	// last response and ETag per distinct query path.
	qcache condCache[QueryResponse]
	// scache does the same for SelectCached, per distinct statement.
	scache condCache[SelectResponse]
	// slowDecodes counts the responses decodePayload handed to
	// encoding/json after their own parser refused them.
	slowDecodes atomic.Uint64
	// bodies holds the buffers response bodies are read into, on the client
	// and not in wire's pool: the collector empties that between two large
	// answers, and each ≈ 300 KB body was allocated and zeroed again.
	bodies wire.BufferList
	// elems remembers the elements answers carried, so an answer that
	// carries one again copies its parse instead of parsing it
	// (wire.ElementMemo, bounded by elementMemoBytes).
	elems wire.ElementMemo
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (e.g. for
// httptest servers or custom transports), the client's own transport
// (New) included.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithRetry enables automatic retries under the policy. Without this
// option every call makes exactly one attempt (idempotency keys are
// still attached to mutations, so a caller-level retry is safe too).
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// New builds a client for the server at base, e.g. "http://127.0.0.1:7070".
// Unless WithHTTPClient says otherwise it has a transport of its own,
// http.DefaultTransport's settings with a write buffer a 256-element batch
// fits in (requestWriteBuffer).
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:   strings.TrimRight(base, "/"),
		bodies: wire.BufferList{Max: maxKeptBody},
		elems:  wire.ElementMemo{Max: elementMemoBytes},
	}
	for _, o := range opts {
		o(c)
	}
	if c.http == nil {
		c.http = &http.Client{Timeout: 30 * time.Second, Transport: newTransport()}
	}
	return c
}

// requestWriteBuffer is the client transport's write buffer. net/http writes
// a body of known length through it, and once the default 4 KiB fills the
// rest goes to the connection through io.Copy's fallback, which allocates a
// 32 KiB buffer per request; a body that fits is written from the buffer.
// A 256-element batch of two-attribute elements is ≈ 40 KiB.
const requestWriteBuffer = 64 << 10

// newTransport is http.DefaultTransport's configuration — proxy from the
// environment, dial and idle timeouts, HTTP/2 — with requestWriteBuffer.
func newTransport() http.RoundTripper {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport
	}
	t = t.Clone()
	t.WriteBufferSize = requestWriteBuffer
	return t
}

// BaseURL reports the server base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// SlowDecodes reports how many response bodies this client decoded
// through encoding/json because the fast parser refused their spelling —
// the client-side twin of the server's per-endpoint slow_decodes. It
// stays zero against a server that encodes with this repository's codec;
// a proxy that re-serializes bodies makes it grow, and each count is a
// response decoded several times slower.
func (c *Client) SlowDecodes() uint64 { return c.slowDecodes.Load() }

// MemoStats counts what the client's element memo did: the elements of
// query answers copied from an earlier answer's parse (Reused) and those
// parsed (Parsed), and the bytes the memo holds (at most elementMemoBytes).
// Reused over Reused+Parsed is the share of elements a workload's answers
// repeat.
type MemoStats = wire.MemoStats

// MemoStats reports the client's element memo counters.
func (c *Client) MemoStats() MemoStats { return c.elems.Stats() }

// callOpts classifies one call for the retry layer.
type callOpts struct {
	// idemKey, when non-empty, is sent as the Idempotency-Key header;
	// the server dedups replays, making transport-error retries safe.
	idemKey string
	// safe marks calls with no server-side effect (reads, probes),
	// retryable on transport errors even without a key.
	safe bool
	// hdr, when non-nil, receives the response headers of the decisive
	// attempt — the router reads the follower staleness bound from it.
	hdr *http.Header
	// failFast makes a connection-refused transport error return
	// immediately instead of burning retry attempts against the same
	// dead node. The router sets it on per-node reads: the productive
	// retry for a refused connection is the next node on the ring, not
	// the same socket after backoff.
	failFast bool
}

// newIdemKey mints a 128-bit random idempotency key. One key is minted
// per logical mutation and reused verbatim across its retries.
func newIdemKey() string {
	var b [16]byte
	crand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// do issues a single-effect request (reads and probes) with the default
// safe retry classification.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, callOpts{safe: true})
}

// doIdem issues a mutation carrying a fresh idempotency key, held
// constant across retries.
func (c *Client) doIdem(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, callOpts{idemKey: newIdemKey()})
}

// call runs the request under the client's retry policy: typed
// overloaded/unavailable responses retry after jittered backoff
// (honoring the server's Retry-After hint); transport errors retry only
// when the call is safe or idempotency-keyed; everything else returns
// immediately.
func (c *Client) call(ctx context.Context, method, path string, in, out any, o callOpts) error {
	var body []byte
	if in != nil {
		var err error
		if ap, ok := in.(wire.Appender); ok {
			body, err = ap.AppendJSON(nil)
		} else {
			body, err = json.Marshal(in)
		}
		if err != nil {
			return fmt.Errorf("tsdbd: encoding request: %w", err)
		}
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var budget time.Time // zero when retries are off
	if attempts > 1 {
		budget = time.Now().Add(c.retry.Budget)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt, lastErr)
			if !budget.IsZero() && time.Now().Add(d).After(budget) {
				break // would blow the budget; return the last error
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return fmt.Errorf("tsdbd: %s %s: %w", method, path, ctx.Err())
			}
		}
		lastErr = c.once(ctx, method, path, body, out, o)
		if lastErr == nil || !retryable(lastErr, o) || ctx.Err() != nil {
			return lastErr
		}
		if o.failFast && IsConnRefused(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// backoff computes the sleep before retry #attempt: exponential from
// BaseBackoff, capped at MaxBackoff, full jitter, floored at the
// server's Retry-After hint when the last error carried one.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	d := c.retry.BaseBackoff << (attempt - 1)
	if d <= 0 || d > c.retry.MaxBackoff {
		d = c.retry.MaxBackoff
	}
	d = time.Duration(mrand.Int64N(int64(d) + 1))
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	return d
}

// retryable decides whether one failed attempt may be replayed.
func retryable(err error, o callOpts) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		// A typed shed/unavailable is a pre-execution refusal: always
		// retryable. read_only, conflicts, rejections etc. are not.
		return ae.Code == CodeOverloaded || ae.Code == CodeUnavailable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Transport error: the request may or may not have executed. Reads
	// are harmless to replay; mutations only when idempotency-keyed.
	return o.safe || o.idemKey != ""
}

// once issues exactly one HTTP attempt and decodes the JSON response
// into out (when out is non-nil). Non-2xx responses become *APIError.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, o callOpts) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("tsdbd: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if o.idemKey != "" {
		req.Header.Set(wire.HeaderIdempotencyKey, o.idemKey)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(wire.HeaderDeadline, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("tsdbd: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if o.hdr != nil {
		*o.hdr = resp.Header.Clone()
	}
	return c.readResponse(resp, out)
}

// maxResponseBytes caps the response body the client will buffer.
const maxResponseBytes = 16 << 20

// maxKeptBody is the largest body buffer the client keeps between requests
// (two at most, wire.BufferList). It is past the 1 MB the shared pool and the
// server keep, because a client cannot stream: it reads an answer whole before
// it parses it, so one that gets a 4 MB current state every hundred requests
// otherwise allocates, zeroes and faults in 4 MB each time, and the collections
// that brings on land on the parses in between — keeping the buffer took
// tsbench's ledger-general read_p95_rel from 3.8× to 2.6× and op_mean_rel from
// 1.67× to 1.50× (EXPERIMENTS S21), for at most 8 MB held.
const maxKeptBody = 4 << 20

// readPayload reads a response body whole into buf, with room reserved
// from its Content-Length. A body past maxResponseBytes is refused with
// a typed too_large error naming the limit — never cut short and handed
// to the decoder, which could only report it as a JSON syntax error.
func readPayload(buf *bytes.Buffer, resp *http.Response) ([]byte, error) {
	err := wire.ReadBody(buf, io.LimitReader(resp.Body, maxResponseBytes+1), resp.ContentLength, maxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("tsdbd: reading response: %w", err)
	}
	if buf.Len() > maxResponseBytes {
		return nil, &APIError{Status: resp.StatusCode, Code: CodeTooLarge,
			Message: fmt.Sprintf("response body exceeds the client's %d-byte limit", maxResponseBytes)}
	}
	return buf.Bytes(), nil
}

// decodePayload decodes a response body into out: through out's own
// parser when it has one (the shapes that carry elements or rows) — a query
// answer's through the client's element memo — and through encoding/json
// otherwise or when that parser meets a spelling it does not own — unknown
// fields are skipped there as they always were, and the detour is counted
// (SlowDecodes).
func (c *Client) decodePayload(payload []byte, out any) error {
	if p, ok := out.(wire.Parser); ok {
		var err error
		if q, ok := out.(*QueryResponse); ok {
			err = q.ParseJSONMemo(payload, &c.elems)
		} else {
			err = p.ParseJSON(payload)
		}
		if err == nil {
			return nil
		}
		c.slowDecodes.Add(1)
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("tsdbd: decoding response: %w", err)
	}
	return nil
}

// readResponse is the one reader of response bodies: it buffers the
// body (in one of the client's own buffers — a decoded body is dead, both
// decoders copy what they keep), turns a non-2xx status into an *APIError (the
// server's error envelope when the body is one, the raw text otherwise,
// with any Retry-After hint), and decodes a success into out when out is
// non-nil.
func (c *Client) readResponse(resp *http.Response, out any) error {
	buf := c.bodies.Get()
	defer c.bodies.Put(buf)
	payload, err := readPayload(buf, resp)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		ae := &APIError{Status: resp.StatusCode, Code: CodeInternal, Message: strings.TrimSpace(string(payload))}
		if s := resp.Header.Get(wire.HeaderRetryAfter); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		var eb wire.ErrorBody
		if json.Unmarshal(payload, &eb) == nil && eb.Error.Code != "" {
			ae.Code, ae.Message = eb.Error.Code, eb.Error.Message
		}
		return ae
	}
	if out == nil {
		return nil
	}
	return c.decodePayload(payload, out)
}

// Health probes the server.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Ready probes /readyz. Unlike the other calls a not-ready server is
// not an error: the server answers 503 with the same ReadyResponse
// body, and Ready returns it with a nil error so callers can inspect
// Status and Reasons. The error is non-nil only for transport or
// decoding failures.
func (c *Client) Ready(ctx context.Context) (ReadyResponse, error) {
	var out ReadyResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return out, fmt.Errorf("tsdbd: building request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return out, fmt.Errorf("tsdbd: GET /readyz: %w", err)
	}
	defer resp.Body.Close()
	// A 503 here is an answer, not an error: skip readResponse's status check.
	buf := c.bodies.Get()
	defer c.bodies.Put(buf)
	payload, err := readPayload(buf, resp)
	if err != nil {
		return out, err
	}
	return out, c.decodePayload(payload, &out)
}

// Metrics fetches the server's request metrics.
func (c *Client) Metrics(ctx context.Context) (MetricsResponse, error) {
	var out MetricsResponse
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &out)
	return out, err
}

// List enumerates the relations in the catalog.
func (c *Client) List(ctx context.Context) ([]RelationSummary, error) {
	var out wire.ListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/relations", nil, &out); err != nil {
		return nil, err
	}
	return out.Relations, nil
}

// Create makes a new relation from the schema. Not retried on transport
// errors (creation is not idempotency-keyed); typed shed responses
// still retry under the client's policy.
func (c *Client) Create(ctx context.Context, schema Schema) (RelationInfo, error) {
	var out RelationInfo
	err := c.call(ctx, http.MethodPost, "/v1/relations", wire.CreateRequest{Schema: schema}, &out, callOpts{})
	return out, err
}

// Info fetches a relation's schema, declarations, and storage advice.
func (c *Client) Info(ctx context.Context, name string) (RelationInfo, error) {
	var out RelationInfo
	err := c.do(ctx, http.MethodGet, "/v1/relations/"+name, nil, &out)
	return out, err
}

// Physical fetches a relation's live physical design: its organization
// with provenance, the declared / inferred / adopted class sets, the
// migration history, and the compaction gauges.
func (c *Client) Physical(ctx context.Context, name string) (PhysicalInfo, error) {
	info, err := c.Info(ctx, name)
	if err != nil {
		return PhysicalInfo{}, err
	}
	if info.Physical == nil {
		return PhysicalInfo{}, fmt.Errorf("tsdbd: server reported no physical design for %q", name)
	}
	return *info.Physical, nil
}

// Declare attaches specialization constraints to a relation. The server
// validates the relation's existing history against each declaration and
// rejects (409, code "rejected") any the history already violates.
func (c *Client) Declare(ctx context.Context, name string, descs ...Descriptor) (DeclareResponse, error) {
	var out DeclareResponse
	err := c.call(ctx, http.MethodPost, "/v1/relations/"+name+"/declare",
		wire.DeclareRequest{Constraints: descs}, &out, callOpts{})
	return out, err
}

// Insert runs one insert transaction against the relation. The client
// attaches a fresh idempotency key, held constant across retries, so a
// replay of an already-applied insert returns the original element.
func (c *Client) Insert(ctx context.Context, name string, req InsertRequest) (Element, error) {
	var out wire.ElementResponse
	err := c.doIdem(ctx, http.MethodPost, "/v1/relations/"+name+"/insert", req, &out)
	return out.Element, err
}

// InsertBatch runs one batched insert transaction: the whole batch is
// journaled as a single WAL frame and published under a single epoch,
// with a per-element status report. The client mints one idempotency key
// for the batch, sent as the Idempotency-Key header, and retries send the
// same key with the same body bytes: the server answers a replay from its
// dedup window — each element the original stored comes back "deduped"
// with its original element, every other "rejected" — instead of storing
// anything twice. With atomic set, any constraint rejection fails the
// whole batch (code "rejected") and stores nothing.
//
// The client asks for a brief report: a stored element the request says
// all of comes back as its surrogates and tt⊢ alone, and the client puts
// the element back together from reqs (wire.BatchInsertResponse.Complete).
// Every item carries its Element as a whole report would have carried it,
// normalized as the round trip normalizes values, in memory of its own:
// reqs may be changed or reused once the call returns.
func (c *Client) InsertBatch(ctx context.Context, name string, reqs []InsertRequest, atomic bool) (BatchInsertResponse, error) {
	body := wire.BatchInsertRequest{Elements: reqs, Atomic: atomic, Brief: true}
	var out BatchInsertResponse
	err := c.call(ctx, http.MethodPost, "/v1/relations/"+name+"/elements:batch", body, &out,
		callOpts{idemKey: newIdemKey()})
	if err == nil {
		if err = out.Complete(reqs); err != nil {
			err = fmt.Errorf("tsdbd: completing the batch report: %w", err)
		}
	}
	return out, err
}

// IngestCSV streams header-driven CSV from r into the relation via the
// server-side bulk loader; the server batches rows as they arrive (one
// WAL frame per batch) without materializing the upload. The stream is
// consumed, so transport failures are not retried — the response reports
// exactly what landed. Malformed rows are reported line-by-line in the
// response, not as an error.
func (c *Client) IngestCSV(ctx context.Context, name string, r io.Reader) (IngestResponse, error) {
	var out IngestResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/ingest/csv?relation="+url.QueryEscape(name), r)
	if err != nil {
		return out, fmt.Errorf("tsdbd: building request: %w", err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := c.http.Do(req)
	if err != nil {
		return out, fmt.Errorf("tsdbd: POST /v1/ingest/csv: %w", err)
	}
	defer resp.Body.Close()
	return out, c.readResponse(resp, &out)
}

// Delete runs one logical-delete transaction against the element.
// Idempotency-keyed like Insert.
func (c *Client) Delete(ctx context.Context, name string, es uint64) error {
	return c.doIdem(ctx, http.MethodPost, "/v1/relations/"+name+"/delete",
		wire.DeleteRequest{ES: es}, nil)
}

// Modify rewrites an element's valid time and varying attributes as a
// delete+insert pair under one transaction. Idempotency-keyed like
// Insert.
func (c *Client) Modify(ctx context.Context, name string, es uint64, vt Timestamp, varying []Value) (Element, error) {
	var out wire.ElementResponse
	err := c.doIdem(ctx, http.MethodPost, "/v1/relations/"+name+"/modify",
		wire.ModifyRequest{ES: es, VT: vt, Varying: varying}, &out)
	return out.Element, err
}

// Query runs one of the four temporal query kinds.
func (c *Client) Query(ctx context.Context, name string, req QueryRequest) (QueryResponse, error) {
	var out QueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/relations/"+name+"/query", req, &out)
	return out, err
}

// Current answers the conventional query: the relation's current state.
func (c *Client) Current(ctx context.Context, name string) (QueryResponse, error) {
	return c.Query(ctx, name, QueryRequest{Kind: QueryCurrent})
}

// Timeslice answers the historical query: current elements valid at vt.
func (c *Client) Timeslice(ctx context.Context, name string, vt int64) (QueryResponse, error) {
	return c.Query(ctx, name, QueryRequest{Kind: QueryTimeslice, VT: vt})
}

// Rollback answers the rollback query: elements present at transaction
// time tt.
func (c *Client) Rollback(ctx context.Context, name string, tt int64) (QueryResponse, error) {
	return c.Query(ctx, name, QueryRequest{Kind: QueryRollback, TT: tt})
}

// TimesliceAsOf answers the bitemporal query: elements valid at vt as the
// database stood at transaction time tt.
func (c *Client) TimesliceAsOf(ctx context.Context, name string, vt, tt int64) (QueryResponse, error) {
	return c.Query(ctx, name, QueryRequest{Kind: QueryAsOf, VT: vt, TT: tt})
}

// Select runs a raw tsql SELECT, e.g.
// "SELECT name, salary FROM emp WHEN AT 1500".
func (c *Client) Select(ctx context.Context, query string) (SelectResponse, error) {
	var out SelectResponse
	err := c.do(ctx, http.MethodPost, "/v1/select", wire.SelectRequest{Query: query}, &out)
	return out, err
}

// Explain plans one of the four temporal query kinds against the
// relation without executing it, returning the structured plan tree.
func (c *Client) Explain(ctx context.Context, name string, req QueryRequest) (ExplainResponse, error) {
	var out ExplainResponse
	path := fmt.Sprintf("/v1/relations/%s/explain?kind=%s&vt=%d&tt=%d",
		name, req.Kind, req.VT, req.TT)
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// ExplainSelect plans a tsql statement without executing it. The
// statement may, but need not, start with EXPLAIN.
func (c *Client) ExplainSelect(ctx context.Context, query string) (ExplainResponse, error) {
	if !strings.HasPrefix(strings.ToLower(strings.TrimSpace(query)), "explain") {
		query = "explain " + query
	}
	var out ExplainResponse
	err := c.do(ctx, http.MethodPost, "/v1/select", wire.SelectRequest{Query: query}, &out)
	return out, err
}

// Classify infers which specializations the relation's stored history
// satisfies.
func (c *Client) Classify(ctx context.Context, name string) (ClassifyResponse, error) {
	var out ClassifyResponse
	err := c.do(ctx, http.MethodGet, "/v1/relations/"+name+"/classify", nil, &out)
	return out, err
}

// Snapshot asks the server to flush dirty relations to its data directory;
// it returns how many were written.
func (c *Client) Snapshot(ctx context.Context) (int, error) {
	var out wire.SnapshotResponse
	if err := c.do(ctx, http.MethodPost, "/v1/snapshot", nil, &out); err != nil {
		return 0, err
	}
	return out.Saved, nil
}
