package server

// Batched and streaming ingest handlers (DESIGN §14).
//
// POST /v1/relations/{name}/elements:batch parses a BatchInsertRequest
// straight into insertions (wire.BatchInsertions) and commits it through
// catalog.Entry.InsertBatchKeyed: one WAL frame, one group-commit entry,
// one published epoch for the whole batch, with a per-item status report. The batch's idempotency key is the request's
// Idempotency-Key header, as a single mutation's is; a request that
// carries a key per element in its body takes the compatibility path
// (catalog.Entry.InsertBatch with those keys) and the header goes unused.
// POST /v1/ingest/csv streams a header-driven CSV body straight into
// size/time-capped batches — flush at ingestFlushSize elements or
// ingestFlushAge — without ever materializing the file. Both endpoints
// are admission-weighted by request size (batchWeight), so a bulk load
// occupies the write class like the single inserts it replaces.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/ingest"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/wire"
)

const (
	// ingestFlushSize caps a CSV batch's element count, ingestFlushAge the
	// time one may sit buffering while the network trickles: whichever
	// trips first journals the batch, so a slow uploader still sees
	// bounded acknowledgment latency.
	ingestFlushSize = 256
	ingestFlushAge  = 5 * time.Millisecond
	// ingestMaxErrors bounds the line-numbered errors echoed back; the
	// total is always reported in ErrorCount.
	ingestMaxErrors = 50
)

func (s *Server) handleInsertBatch(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	// A replay must be the same request: the digest of the body as
	// received goes with the batch. The client encodes a body once and
	// sends the same bytes on every retry.
	body := &digestBody{ReadCloser: r.Body}
	r.Body = body
	var req wire.BatchInsertions
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	var res catalog.BatchResult
	var err error
	if len(req.Keys) > 0 {
		res, err = e.InsertBatch(r.Context(), req.Elements, req.Keys, req.Atomic)
	} else {
		res, err = e.InsertBatchKeyed(r.Context(), req.Elements, idemKey(r), body.sum, req.Atomic)
	}
	if err != nil {
		return nil, mapError(err)
	}
	// A replayed batch that stored nothing new is a 200, not a 201.
	status := http.StatusCreated
	if res.Stored == 0 {
		status = http.StatusOK
	}
	return &response{
		status: status,
		body: wire.BatchBody[batchItems]{Items: batchItems{res.Items, req.Elements, req.Brief},
			Stored: res.Stored, Deduped: res.Deduped, Rejected: res.Rejected, Epoch: res.Epoch},
		touched: res.Stored,
	}, nil
}

// castagnoli is the CRC-32C table: the polynomial the hardware computes.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digestBody is a request body that keeps the CRC-32C of every byte read
// through it: the digest that identifies a keyed batch's request.
type digestBody struct {
	io.ReadCloser
	sum uint32
}

func (d *digestBody) Read(p []byte) (int, error) {
	n, err := d.ReadCloser.Read(p)
	d.sum = crc32.Update(d.sum, castagnoli, p[:n])
	return n, err
}

// batchItems is what the report of a batch is encoded from: the catalog's
// outcomes, in place, beside the insertions they answer. In a brief report
// a stored item goes out brief when its element is what the request would
// rebuild — the valid time-stamp was not truncated to the granularity; a
// deduped item's element is the original, which the request may not match,
// and goes out whole.
type batchItems struct {
	res   []catalog.BatchItemResult
	ins   []relation.Insertion
	brief bool
}

func (b batchItems) Len() int { return len(b.res) }

func (b batchItems) Item(i int) (string, string, *element.Element, bool) {
	it := &b.res[i]
	brief := b.brief && it.Status == catalog.BatchStored && it.Elem.Current() && it.Elem.VT == b.ins[i].VT
	return it.Status.String(), it.Err, it.Elem, brief
}

// handleIngestCSV streams ?relation=<name>'s body — header-driven CSV —
// into batches. Malformed rows cost one row each (line-numbered in the
// response); decode never aborts the stream. The body cap is
// Config.IngestMaxBytes, not the JSON cap.
func (s *Server) handleIngestCSV(r *http.Request) (*response, *apiError) {
	name := r.URL.Query().Get("relation")
	if name == "" {
		return nil, errBadRequest("need ?relation=<name>")
	}
	e, err := s.cat.Get(name)
	if err == nil {
		err = e.ClientWritable()
	}
	if err != nil {
		return nil, mapError(err)
	}
	rr, err := ingest.NewRowReader(r.Body)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	m, err := newCSVMapper(e.Schema(), rr.Header())
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}

	out := wire.IngestResponse{Relation: name}
	addErr := func(msg string) {
		out.ErrorCount++
		if len(out.Errors) < ingestMaxErrors {
			out.Errors = append(out.Errors, msg)
		}
	}
	buf := make([]relation.Insertion, 0, ingestFlushSize)
	lines := make([]int, 0, ingestFlushSize)
	var batchStart time.Time
	flush := func(reason *atomic.Uint64) *apiError {
		if len(buf) == 0 {
			return nil
		}
		res, err := e.InsertBatch(r.Context(), buf, nil, false)
		if err != nil {
			return mapError(err)
		}
		for i, it := range res.Items {
			if it.Status == catalog.BatchRejected {
				out.Rejected++
				addErr(fmt.Sprintf("line %d: %s", lines[i], it.Err))
			}
		}
		out.Stored += res.Stored
		out.Batches++
		reason.Add(1)
		buf, lines = buf[:0], lines[:0]
		return nil
	}
	for {
		row, rerr := rr.Next()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			var re *ingest.RowError
			if errors.As(rerr, &re) {
				out.Lines++
				addErr(re.Error())
				continue
			}
			// A transport/scan failure mid-stream: already-journaled
			// batches stand (each was acknowledged durable); report what
			// landed alongside the failure.
			return nil, errBadRequest("%s (after %d lines, %d stored)", rerr.Error(), out.Lines, out.Stored)
		}
		out.Lines++
		ins, ierr := m.insertion(row)
		if ierr != nil {
			addErr(ierr.Error())
			continue
		}
		if len(buf) == 0 {
			batchStart = time.Now()
		}
		buf = append(buf, ins)
		lines = append(lines, row.Line)
		switch {
		case len(buf) >= ingestFlushSize:
			if aerr := flush(&s.ingFlushSize); aerr != nil {
				return nil, aerr
			}
		case time.Since(batchStart) >= ingestFlushAge:
			if aerr := flush(&s.ingFlushTime); aerr != nil {
				return nil, aerr
			}
		}
	}
	if aerr := flush(&s.ingFlushEOF); aerr != nil {
		return nil, aerr
	}
	return &response{status: http.StatusCreated, body: out, touched: out.Stored}, nil
}

// csvMapper binds a header to a relation schema: which field feeds the
// object surrogate, the valid time, each invariant/varying attribute,
// and each user-defined time. Every schema attribute must be covered —
// partial rows cannot build a valid insertion.
type csvMapper struct {
	schema relation.Schema
	roles  []csvRole
}

type csvRole struct {
	kind csvRoleKind
	idx  int               // attribute index for inv/vary/user
	typ  element.ValueKind // value type for inv/vary
}

type csvRoleKind uint8

const (
	roleOS csvRoleKind = iota
	roleVT
	roleVTStart
	roleVTEnd
	roleInvariant
	roleVarying
	roleUserTime
)

func newCSVMapper(schema relation.Schema, header []string) (*csvMapper, error) {
	m := &csvMapper{schema: schema, roles: make([]csvRole, len(header))}
	covered := make(map[string]bool, len(header))
	for i, h := range header {
		role, err := m.roleFor(h)
		if err != nil {
			return nil, err
		}
		m.roles[i] = role
		covered[h] = true
	}
	// Valid-time coverage matches the schema's stamp kind.
	if schema.ValidTime == element.EventStamp {
		if !covered["vt"] {
			return nil, fmt.Errorf("ingest: header misses \"vt\" (event relation)")
		}
	} else {
		if !covered["vt_start"] || !covered["vt_end"] {
			return nil, fmt.Errorf("ingest: header misses \"vt_start\"/\"vt_end\" (interval relation)")
		}
	}
	for _, c := range schema.Invariant {
		if !covered[c.Name] {
			return nil, fmt.Errorf("ingest: header misses invariant column %q", c.Name)
		}
	}
	for _, c := range schema.Varying {
		if !covered[c.Name] {
			return nil, fmt.Errorf("ingest: header misses varying column %q", c.Name)
		}
	}
	for _, u := range schema.UserTimes {
		if !covered[u] {
			return nil, fmt.Errorf("ingest: header misses user time %q", u)
		}
	}
	return m, nil
}

func (m *csvMapper) roleFor(h string) (csvRole, error) {
	switch h {
	case "os":
		return csvRole{kind: roleOS}, nil
	case "vt":
		if m.schema.ValidTime != element.EventStamp {
			return csvRole{}, fmt.Errorf("ingest: column \"vt\" on an interval relation (want vt_start/vt_end)")
		}
		return csvRole{kind: roleVT}, nil
	case "vt_start":
		if m.schema.ValidTime != element.IntervalStamp {
			return csvRole{}, fmt.Errorf("ingest: column \"vt_start\" on an event relation (want vt)")
		}
		return csvRole{kind: roleVTStart}, nil
	case "vt_end":
		if m.schema.ValidTime != element.IntervalStamp {
			return csvRole{}, fmt.Errorf("ingest: column \"vt_end\" on an event relation (want vt)")
		}
		return csvRole{kind: roleVTEnd}, nil
	}
	for i, c := range m.schema.Invariant {
		if c.Name == h {
			return csvRole{kind: roleInvariant, idx: i, typ: c.Type}, nil
		}
	}
	for i, c := range m.schema.Varying {
		if c.Name == h {
			return csvRole{kind: roleVarying, idx: i, typ: c.Type}, nil
		}
	}
	for i, u := range m.schema.UserTimes {
		if u == h {
			return csvRole{kind: roleUserTime, idx: i}, nil
		}
	}
	return csvRole{}, fmt.Errorf("ingest: header column %q matches no schema attribute of %q", h, m.schema.Name)
}

// insertion builds one staged insertion from a row; errors carry the
// row's line number.
func (m *csvMapper) insertion(row ingest.Row) (relation.Insertion, error) {
	fail := func(col int, err error) (relation.Insertion, error) {
		return relation.Insertion{}, fmt.Errorf("line %d: column %d: %v", row.Line, col+1, err)
	}
	var ins relation.Insertion
	if n := len(m.schema.Invariant); n > 0 {
		ins.Invariant = make([]element.Value, n)
	}
	if n := len(m.schema.Varying); n > 0 {
		ins.Varying = make([]element.Value, n)
	}
	if n := len(m.schema.UserTimes); n > 0 {
		ins.UserTimes = make([]chronon.Chronon, n)
	}
	var vtEvent, vtStart, vtEnd chronon.Chronon
	for i, f := range row.Fields {
		role := m.roles[i]
		switch role.kind {
		case roleOS:
			n, err := strconv.ParseUint(f, 10, 64)
			if err != nil || n == 0 {
				return fail(i, fmt.Errorf("bad object surrogate %q", f))
			}
			ins.Object = surrogate.Surrogate(n)
		case roleVT, roleVTStart, roleVTEnd, roleUserTime:
			c, err := ingest.Time(f)
			if err != nil {
				return fail(i, err)
			}
			switch role.kind {
			case roleVT:
				vtEvent = c
			case roleVTStart:
				vtStart = c
			case roleVTEnd:
				vtEnd = c
			default:
				ins.UserTimes[role.idx] = c
			}
		case roleInvariant, roleVarying:
			v, err := parseCSVValue(f, role.typ)
			if err != nil {
				return fail(i, err)
			}
			if role.kind == roleInvariant {
				ins.Invariant[role.idx] = v
			} else {
				ins.Varying[role.idx] = v
			}
		}
	}
	if m.schema.ValidTime == element.EventStamp {
		ins.VT = element.EventAt(vtEvent)
	} else {
		if vtEnd <= vtStart {
			return relation.Insertion{}, fmt.Errorf("line %d: empty or inverted interval [%v, %v)", row.Line, vtStart, vtEnd)
		}
		ins.VT = element.SpanOf(vtStart, vtEnd)
	}
	return ins, nil
}

// parseCSVValue converts one trimmed field per its schema type. Empty
// fields are SQL-ish nulls.
func parseCSVValue(f string, typ element.ValueKind) (element.Value, error) {
	if f == "" {
		return element.Null(), nil
	}
	switch typ {
	case element.KindString:
		return element.String_(f), nil
	case element.KindInt:
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return element.Value{}, fmt.Errorf("bad int %q", f)
		}
		return element.Int(n), nil
	case element.KindFloat:
		// ParseFloat also reads NaN and ±Inf, which JSON cannot spell: one
		// stored, every query returning it would fail to encode, forever.
		x, err := strconv.ParseFloat(f, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return element.Value{}, fmt.Errorf("bad float %q", f)
		}
		return element.Float(x), nil
	case element.KindBool:
		b, err := strconv.ParseBool(f)
		if err != nil {
			return element.Value{}, fmt.Errorf("bad bool %q", f)
		}
		return element.Bool(b), nil
	case element.KindTime:
		c, err := ingest.Time(f)
		if err != nil {
			return element.Value{}, err
		}
		return element.Time(c), nil
	}
	return element.Value{}, fmt.Errorf("unsupported column type %v", typ)
}
