package server

// The request-deadline contract (deadline.go), over real connections: who
// answers when a handler outlives its deadline, what that answer carries,
// what the handler sees afterwards — and that a handler which commits in
// time is never touched by the timer, however late the timer fires.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/wire"
)

func deadlineServer(timeout time.Duration) *Server {
	return New(Config{Catalog: catalog.New(catalog.Config{}), RequestTimeout: timeout})
}

// wedged is a handler that sets an ETag, blocks until its context ends,
// then stays blocked until released — a handler the timer must answer for
// — and reports what its context and its late write said.
type wedged struct {
	release chan struct{}
	ctxErr  chan error
	wrote   chan error
}

func newWedged() *wedged {
	return &wedged{release: make(chan struct{}), ctxErr: make(chan error, 1), wrote: make(chan error, 1)}
}

func (h *wedged) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(wire.HeaderETag, `"stale-1"`)
	<-r.Context().Done()
	h.ctxErr <- r.Context().Err()
	<-h.release
	_, err := w.Write([]byte("late"))
	h.wrote <- err
}

// checkTimeoutAnswer asserts resp is the timeout envelope and nothing else.
func checkTimeoutAnswer(t *testing.T, resp *http.Response) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the timeout answer: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if want := `{"error":{"code":"internal","message":"request timed out"}}`; string(body) != want {
		t.Errorf("body %q, want %q", body, want)
	}
	for k, want := range map[string]string{
		"Content-Type":        "application/json",
		"Content-Length":      strconv.Itoa(len(body)),
		wire.HeaderRetryAfter: "1",
	} {
		if got := resp.Header.Get(k); got != want {
			t.Errorf("%s = %q, want %q", k, got, want)
		}
	}
	if !resp.Close {
		t.Error("the timeout answer does not close the connection")
	}
	if et := resp.Header.Get(wire.HeaderETag); et != "" {
		t.Errorf("the handler's ETag %q leaked onto the 503", et)
	}
}

// TestDeadlineAnswersForAWedgedHandler: the 503 arrives at about the
// deadline while the handler is still blocked (so it was flushed from the
// timer, not on return); the smaller of the server's timeout and the
// client's budget header is the deadline, whichever way round they are.
func TestDeadlineAnswersForAWedgedHandler(t *testing.T) {
	for _, tc := range []struct {
		name     string
		timeout  time.Duration
		budgetMS string
	}{
		{"server-timeout", 50 * time.Millisecond, ""},
		{"server-timeout-under-a-larger-budget", 50 * time.Millisecond, "60000"},
		{"budget-under-a-larger-server-timeout", time.Minute, "50"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := deadlineServer(tc.timeout)
			h := newWedged()
			ts := httptest.NewServer(s.bounded("slow", h))
			defer ts.Close()
			defer close(h.release) // runs first: Close waits for the handler

			req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
			if tc.budgetMS != "" {
				req.Header.Set(wire.HeaderDeadline, tc.budgetMS)
			}
			start := time.Now()
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			defer resp.Body.Close()
			checkTimeoutAnswer(t, resp)
			if took := time.Since(start); took < 50*time.Millisecond || took > 5*time.Second {
				t.Errorf("answered after %s, want about 50ms", took)
			}
			if got := s.metrics.Report().Endpoints["slow"].Timeouts; got != 1 {
				t.Errorf("request_timeouts = %d, want 1", got)
			}

			// The handler is still inside ServeHTTP: its context ended, and
			// once released its write is refused.
			if err := <-h.ctxErr; !errors.Is(err, context.Canceled) {
				t.Errorf("handler's context: %v, want canceled", err)
			}
			h.release <- struct{}{}
			if err := <-h.wrote; !errors.Is(err, http.ErrHandlerTimeout) {
				t.Errorf("late Write: %v, want http.ErrHandlerTimeout", err)
			}
		})
	}
}

// TestDeadlineAfterCommitIsANoOp: a handler that commits before the
// deadline and is still writing when the timer fires is delivered whole.
// The timer firing mid-body is arranged, not hoped for: the handler sleeps
// past the deadline between the two halves of its body.
func TestDeadlineAfterCommitIsANoOp(t *testing.T) {
	const timeout = 30 * time.Millisecond
	body := bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16)
	s := deadlineServer(timeout)
	ts := httptest.NewServer(s.bounded("big", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wire.HeaderETag, `"big-1"`)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(body[:len(body)/2]); err != nil {
			t.Errorf("first half: %v", err)
		}
		time.Sleep(3 * timeout)
		if err := r.Context().Err(); err != nil {
			t.Errorf("the timer cancelled a committed request: %v", err)
		}
		if _, err := w.Write(body[len(body)/2:]); err != nil {
			t.Errorf("second half: %v", err)
		}
	})))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the body: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("status %d, %d body bytes (equal: %v), want 200 and all %d", resp.StatusCode, len(got), bytes.Equal(got, body), len(body))
	}
	if resp.Header.Get(wire.HeaderETag) != `"big-1"` || resp.Close {
		t.Errorf("ETag %q, close %v: want the handler's headers and a reusable connection", resp.Header.Get(wire.HeaderETag), resp.Close)
	}
	if got := s.metrics.Report().Endpoints["big"].Timeouts; got != 0 {
		t.Errorf("request_timeouts = %d, want 0", got)
	}
}

// TestDeadlineRacesCommit puts handlers' commits on top of the deadline,
// many at once: every client must read either the handler's whole
// response or the whole timeout answer, never a mixture, and the server's
// books must agree with the clients' count of each.
func TestDeadlineRacesCommit(t *testing.T) {
	const timeout = 20 * time.Millisecond
	const n = 48
	body := bytes.Repeat([]byte("x"), 32<<10)
	s := deadlineServer(timeout)
	ts := httptest.NewServer(s.bounded("race", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jitter, _ := strconv.Atoi(r.URL.Query().Get("j"))
		time.Sleep(timeout + time.Duration(jitter-n/2)*50*time.Microsecond)
		w.Header().Set(wire.HeaderETag, `"race-1"`)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	})))
	defer ts.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	timedOut := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "?j=" + strconv.Itoa(i))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: reading: %v", i, err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				if !bytes.Equal(got, body) || resp.Header.Get(wire.HeaderETag) != `"race-1"` {
					t.Errorf("request %d: 200 with %d body bytes, ETag %q", i, len(got), resp.Header.Get(wire.HeaderETag))
				}
			case http.StatusServiceUnavailable:
				if !bytes.Equal(got, timeoutBody) || resp.Header.Get(wire.HeaderETag) != "" {
					t.Errorf("request %d: 503 with body %q, ETag %q", i, got, resp.Header.Get(wire.HeaderETag))
				}
				mu.Lock()
				timedOut++
				mu.Unlock()
			default:
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if got := s.metrics.Report().Endpoints["race"].Timeouts; got != uint64(timedOut) {
		t.Errorf("request_timeouts = %d, clients saw %d timeout answers", got, timedOut)
	}
}

// TestDeadlineThroughTheEnvelope drives the real wrap layer: a panic is
// still the typed 500, and a handler that outlives the deadline is booked
// as a timeout and, once it returns, as a failed request with no bytes
// sent — the response it encoded went nowhere.
func TestDeadlineThroughTheEnvelope(t *testing.T) {
	s := deadlineServer(50 * time.Millisecond)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/boom", s.wrap("boom", ClassRead, func(*http.Request) (*response, *apiError) {
		panic("boom")
	}))
	mux.Handle("/slow", s.wrap("slow", ClassRead, func(r *http.Request) (*response, *apiError) {
		<-release
		return &response{body: struct{}{}, etag: `"slow-1"`}, nil
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("boom: %v", err)
	}
	var eb wire.ErrorBody
	err = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusInternalServerError ||
		eb.Error.Code != wire.CodeInternal || eb.Error.Message != "internal error: boom" {
		t.Fatalf("panic answered %d %+v (decode: %v), want the typed 500", resp.StatusCode, eb, err)
	}

	resp, err = ts.Client().Get(ts.URL + "/slow")
	if err != nil {
		t.Fatalf("slow: %v", err)
	}
	checkTimeoutAnswer(t, resp)
	resp.Body.Close()
	close(release)
	ts.Close() // returns once the handler has, its books closed
	ep := s.metrics.Report().Endpoints["slow"]
	if ep.Requests != 1 || ep.Errors != 1 || ep.Timeouts != 1 || ep.RespBytes != 0 {
		t.Errorf("books for the timed-out request: %+v, want 1 request, 1 error, 1 timeout, 0 bytes", ep)
	}
}
