package client

import (
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
	// ETag is the server's validator for this result — the relation's
	// mutation epoch. The client stores it and revalidates with
	// If-None-Match on the next identical query.
	ETag string
	// NotModified reports that the server answered 304 and the body was
	// served from the client's local cache without the query running.
	NotModified bool
}

// cachedEntry is one locally retained result keyed by its request path.
type cachedEntry struct {
	etag string
	resp QueryResponse
}

// queryCache is the client-side conditional-request cache. It retains the
// last response per distinct query path plus the server's ETag; entries
// are only ever used to answer a 304, so a stale entry costs nothing but
// memory and is overwritten by the next 200.
type queryCache struct {
	mu      sync.Mutex
	entries map[string]cachedEntry
}

func (qc *queryCache) get(path string) (cachedEntry, bool) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	ce, ok := qc.entries[path]
	return ce, ok
}

func (qc *queryCache) put(path string, ce cachedEntry) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if qc.entries == nil {
		qc.entries = make(map[string]cachedEntry)
	}
	qc.entries[path] = ce
}

// CachedSelectResponse is a SELECT answer together with its freshness
// metadata, mirroring CachedResponse for the statement endpoint.
type CachedSelectResponse struct {
	SelectResponse
	// ETag is the server's validator — the relation's mutation epoch.
	ETag string
	// NotModified reports a 304 served from the client's local cache.
	NotModified bool
}

// cachedSelectEntry is one locally retained SELECT result.
type cachedSelectEntry struct {
	etag string
	resp SelectResponse
}

// selectCache is the conditional-request cache for SelectCached, keyed by
// the full request path (relation + statement).
type selectCache struct {
	mu      sync.Mutex
	entries map[string]cachedSelectEntry
}

func (sc *selectCache) get(path string) (cachedSelectEntry, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ce, ok := sc.entries[path]
	return ce, ok
}

func (sc *selectCache) put(path string, ce cachedSelectEntry) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.entries == nil {
		sc.entries = make(map[string]cachedSelectEntry)
	}
	sc.entries[path] = ce
}

// SelectCached runs a tsql SELECT through the server's conditional GET
// endpoint. Like QueryCached, the first call fetches and remembers the
// result with its ETag; repeats revalidate with If-None-Match and an
// unmutated relation answers 304 from the local copy. Window aggregates
// are the intended tenant: their result sets are small (windows, not
// elements) but recomputation folds the whole relation, so a 304 saves
// the most where it matters. rel must name the relation the statement
// queries; the server rejects a mismatch.
func (c *Client) SelectCached(ctx context.Context, rel, query string) (CachedSelectResponse, error) {
	path := "/v1/relations/" + rel + "/select?query=" + url.QueryEscape(query)

	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return CachedSelectResponse{}, fmt.Errorf("tsdbd: building request: %w", err)
	}
	cached, haveCached := c.scache.get(path)
	if haveCached {
		httpReq.Header.Set(wire.HeaderIfNoneMatch, cached.etag)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			httpReq.Header.Set(wire.HeaderDeadline, strconv.FormatInt(ms, 10))
		}
	}

	resp, err := c.http.Do(httpReq)
	if err != nil {
		return CachedSelectResponse{}, fmt.Errorf("tsdbd: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && haveCached {
		return CachedSelectResponse{
			SelectResponse: cached.resp,
			ETag:           resp.Header.Get(wire.HeaderETag),
			NotModified:    true,
		}, nil
	}
	var out SelectResponse
	if err := c.readResponse(resp, &out); err != nil {
		return CachedSelectResponse{}, err
	}
	etag := resp.Header.Get(wire.HeaderETag)
	if etag != "" {
		c.scache.put(path, cachedSelectEntry{etag: etag, resp: out})
	}
	return CachedSelectResponse{SelectResponse: out, ETag: etag}, nil
}

// QueryCached runs one of the temporal query kinds through the server's
// conditional GET endpoint. The first call fetches and remembers the
// result with its ETag; subsequent identical calls revalidate with
// If-None-Match, so an unmutated relation answers 304 and the body comes
// from the client's cache — no query executes and no result set crosses
// the wire. A mutation changes the relation's epoch, the validator stops
// matching, and the next call fetches fresh.
func (c *Client) QueryCached(ctx context.Context, name string, req QueryRequest) (CachedResponse, error) {
	path := fmt.Sprintf("/v1/relations/%s/query?kind=%s&vt=%d&tt=%d",
		name, req.Kind, req.VT, req.TT)

	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return CachedResponse{}, fmt.Errorf("tsdbd: building request: %w", err)
	}
	cached, haveCached := c.qcache.get(path)
	if haveCached {
		httpReq.Header.Set(wire.HeaderIfNoneMatch, cached.etag)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			httpReq.Header.Set(wire.HeaderDeadline, strconv.FormatInt(ms, 10))
		}
	}

	resp, err := c.http.Do(httpReq)
	if err != nil {
		return CachedResponse{}, fmt.Errorf("tsdbd: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && haveCached {
		return CachedResponse{
			QueryResponse: cached.resp,
			ETag:          resp.Header.Get(wire.HeaderETag),
			NotModified:   true,
		}, nil
	}
	var out QueryResponse
	if err := c.readResponse(resp, &out); err != nil {
		return CachedResponse{}, err
	}
	etag := resp.Header.Get(wire.HeaderETag)
	if etag != "" {
		c.qcache.put(path, cachedEntry{etag: etag, resp: out})
	}
	return CachedResponse{QueryResponse: out, ETag: etag}, nil
}
