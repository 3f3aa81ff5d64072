package client

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// CachedResponse is a query answer together with its freshness metadata.
type CachedResponse struct {
	QueryResponse
	// ETag is the server's current validator for this result: the epoch it
	// holds for, in the server's boot. The client stores it and revalidates
	// with If-None-Match on the next identical query.
	ETag string
	// NotModified reports that the server answered 304 and the body was
	// served from the client's local cache without the query running —
	// possibly computed epochs ago, when nothing since met the query, in
	// which case its Epoch and plan are those of that older view.
	NotModified bool
	// Validation is what the server found revalidating the validator sent
	// (wire.HeaderValidation: "same", "revalidated", "changed" or
	// "unknown"); empty when none was sent.
	Validation string
}

// condCacheSize bounds each of a client's conditional caches, in distinct
// request paths. A dashboard whose valid times follow the clock sends a
// new path every time; the least recently used goes first.
const condCacheSize = 1024

// elementMemoBytes bounds a client's element memo (wire.ElementMemo): the
// parses of the elements its query answers carried, with the bytes each was
// parsed from — ≈ 560 bytes an element of two attributes. One generation,
// half of it, holds the 20,000-element current state of tsbench's ledger
// (≈ 11 MB) beside its time-slices; with 8 MB the current state pushed the
// rest out and a quarter of the elements answers repeat were parsed again
// (EXPERIMENTS S32).
const elementMemoBytes = 32 << 20

// condEntry is one locally retained answer, keyed by its request path.
type condEntry[R any] struct {
	path, etag string
	resp       R
}

// condCache is a conditional-request cache: the last answer and validator
// per distinct request path, at most condCacheSize of them. Entries are
// only ever used to answer a 304, so a stale one costs nothing but memory
// and is overwritten by the next 200. An answer is kept and handed out as
// copies (Clone): what a caller does to the one it got changes neither the
// kept answer nor another caller's.
type condCache[R interface{ Clone() R }] struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // of *condEntry[R], most recently used first
}

func (cc *condCache[R]) get(path string) (condEntry[R], bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	el, ok := cc.entries[path]
	if !ok {
		return condEntry[R]{}, false
	}
	cc.lru.MoveToFront(el)
	return *el.Value.(*condEntry[R]), true
}

func (cc *condCache[R]) put(path, etag string, resp R) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.entries[path]; ok {
		*el.Value.(*condEntry[R]) = condEntry[R]{path: path, etag: etag, resp: resp}
		cc.lru.MoveToFront(el)
		return
	}
	if cc.entries == nil {
		cc.entries = make(map[string]*list.Element)
	}
	if cc.lru.Len() >= condCacheSize {
		oldest := cc.lru.Back()
		delete(cc.entries, cc.lru.Remove(oldest).(*condEntry[R]).path)
	}
	cc.entries[path] = cc.lru.PushFront(&condEntry[R]{path: path, etag: etag, resp: resp})
}

// CachedSelectResponse is a SELECT answer together with its freshness
// metadata, mirroring CachedResponse for the statement endpoint.
type CachedSelectResponse struct {
	SelectResponse
	// ETag is the server's current validator for this result.
	ETag string
	// NotModified reports a 304 served from the client's local cache.
	NotModified bool
	// Validation is what the server found revalidating the validator sent,
	// as in CachedResponse.
	Validation string
}

// conditionalGet sends a GET that revalidates the answer cc holds for path,
// if any. On a 304 it returns a copy of that answer, and keeps the
// validator the server sent with it: the next revalidation walks from
// there. Otherwise it decodes the body into a fresh answer and keeps a copy
// with its validator.
//
// A query answer is parsed through the client's element memo under rel, the
// relation it was asked of.
func conditionalGet[R interface{ Clone() R }](ctx context.Context, c *Client, cc *condCache[R], rel, path string) (resp R, etag, validation string, notModified bool, err error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return resp, "", "", false, fmt.Errorf("tsdbd: building request: %w", err)
	}
	cached, haveCached := cc.get(path)
	if haveCached {
		httpReq.Header.Set(wire.HeaderIfNoneMatch, cached.etag)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			httpReq.Header.Set(wire.HeaderDeadline, strconv.FormatInt(ms, 10))
		}
	}

	hr, err := c.http.Do(httpReq)
	if err != nil {
		return resp, "", "", false, fmt.Errorf("tsdbd: GET %s: %w", path, err)
	}
	defer hr.Body.Close()
	etag, validation = hr.Header.Get(wire.HeaderETag), hr.Header.Get(wire.HeaderValidation)
	if hr.StatusCode == http.StatusNotModified && haveCached {
		if etag != "" && etag != cached.etag {
			cc.put(path, etag, cached.resp)
		}
		return cached.resp.Clone(), etag, validation, true, nil
	}
	var dst any = &resp
	if q, ok := dst.(*QueryResponse); ok {
		dst = &answerOf{rel, q}
	}
	if err := c.readResponse(hr, dst); err != nil {
		return resp, "", "", false, err
	}
	if etag != "" {
		cc.put(path, etag, resp.Clone())
	}
	return resp, etag, validation, false, nil
}

// SelectCached runs a tsql SELECT through the server's conditional GET
// endpoint. Like QueryCached, the first call fetches and remembers the
// result with its ETag; repeats revalidate with If-None-Match, and a
// relation that changed nowhere the statement reads answers 304 from the
// local copy. Window aggregates are the intended tenant: their result sets
// are small (windows, not elements) but recomputation folds the whole
// relation, so a 304 saves the most where it matters. rel must name the
// relation the statement queries; the server rejects a mismatch.
func (c *Client) SelectCached(ctx context.Context, rel, query string) (CachedSelectResponse, error) {
	path := "/v1/relations/" + rel + "/select?query=" + url.QueryEscape(query)
	resp, etag, validation, notModified, err := conditionalGet(ctx, c, &c.scache, rel, path)
	if err != nil {
		return CachedSelectResponse{}, err
	}
	return CachedSelectResponse{SelectResponse: resp, ETag: etag, NotModified: notModified, Validation: validation}, nil
}

// QueryCached runs one of the temporal query kinds through the server's
// conditional GET endpoint. The first call fetches and remembers the
// result with its ETag; subsequent identical calls revalidate with
// If-None-Match, so a relation that changed nowhere the query can see
// answers 304 and the body comes from the client's cache — no query
// executes and no result set crosses the wire. A change the query can see
// (a write into a time-slice's instant, any write for the current state)
// fails the validator, and the call fetches fresh.
func (c *Client) QueryCached(ctx context.Context, name string, req QueryRequest) (CachedResponse, error) {
	path := fmt.Sprintf("/v1/relations/%s/query?kind=%s&vt=%d&tt=%d",
		name, req.Kind, req.VT, req.TT)
	resp, etag, validation, notModified, err := conditionalGet(ctx, c, &c.qcache, name, path)
	if err != nil {
		return CachedResponse{}, err
	}
	return CachedResponse{QueryResponse: resp, ETag: etag, NotModified: notModified, Validation: validation}, nil
}
