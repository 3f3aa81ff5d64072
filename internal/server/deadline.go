package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// timeoutBody is what a request that outlives its deadline is answered:
// the error envelope, code "internal", no trailing newline.
var timeoutBody, _ = json.Marshal(wire.ErrorBody{Error: wire.ErrorDetail{
	Code: wire.CodeInternal, Message: "request timed out",
}})

// bounded runs next on the connection's own goroutine under a deadline:
// the smaller of Config.RequestTimeout and the client's
// X-Tsdbd-Deadline-Ms budget, one timer for both. If the timer fires
// before next has committed a response, the request context is cancelled
// and the 503 timeout envelope is sent and flushed from the timer's
// goroutine, so a wedged handler cannot hold the client; whatever next
// writes afterwards gets http.ErrHandlerTimeout. Once next has committed
// the timer does nothing, and a slow socket is http.Server.WriteTimeout's
// business — sound only because writeJSON encodes the whole body before
// it commits, so nothing that can block on the catalog follows a commit.
func (s *Server) bounded(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := s.cfg.RequestTimeout
		if ms, ok := deadlineBudget(r); ok && ms < int64(d/time.Millisecond) {
			d = time.Duration(ms) * time.Millisecond
		}
		ctx, cancel := context.WithCancel(r.Context())
		dw := &deadlineWriter{w: w, h: make(http.Header, 4), cancel: cancel}
		t := time.AfterFunc(d, func() { dw.expire(s.metrics, name) })
		defer func() {
			t.Stop()
			// Also waits out an expire that is mid-answer: the connection
			// must not be handed back to net/http while the timer's
			// goroutine is still writing to it.
			dw.commit(http.StatusOK)
			cancel()
		}()
		next.ServeHTTP(dw, r.WithContext(ctx))
	})
}

// deadlineWriter is the http.ResponseWriter a bounded handler sees. The
// handler's headers stay in a private map until its first WriteHeader or
// Write commits them to the connection, so a timeout answer carries none
// of them (an ETag on a 503 would poison a cache); body bytes go straight
// to the connection, uncopied.
type deadlineWriter struct {
	w      http.ResponseWriter
	h      http.Header // touched by the handler's goroutine only
	cancel context.CancelFunc

	mu    sync.Mutex
	state int // who owns w: see below
}

const (
	dwOpen      = iota // nobody has answered yet
	dwCommitted        // the handler has; the timer is a no-op
	dwTimedOut         // the timer has; the handler's writes fail
)

func (d *deadlineWriter) Header() http.Header { return d.h }

func (d *deadlineWriter) WriteHeader(status int) { d.commit(status) }

func (d *deadlineWriter) Write(p []byte) (int, error) {
	if !d.commit(http.StatusOK) {
		return 0, http.ErrHandlerTimeout
	}
	return d.w.Write(p)
}

// commit hands the handler's headers and status to the connection if
// nothing has been answered yet, and reports whether the response is the
// handler's.
func (d *deadlineWriter) commit(status int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == dwOpen {
		d.state = dwCommitted
		dst := d.w.Header()
		for k, v := range d.h {
			dst[k] = v
		}
		d.w.WriteHeader(status)
	}
	return d.state == dwCommitted
}

// expire is the timer: if the handler has not committed, it cancels the
// request, books the timeout against the endpoint (before the answer, so
// a client that has read the 503 finds it in /metrics) and answers.
// Connection: close because the connection's goroutine may still be inside
// the handler and cannot read a next request.
func (d *deadlineWriter) expire(m *Metrics, endpoint string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != dwOpen {
		return
	}
	d.state = dwTimedOut
	d.cancel()
	m.RecordTimeout(endpoint)
	h := d.w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(timeoutBody)))
	h.Set(wire.HeaderRetryAfter, "1")
	h.Set("Connection", "close")
	d.w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = d.w.Write(timeoutBody) // a client that has gone gets no answer
	_ = http.NewResponseController(d.w).Flush()
}
