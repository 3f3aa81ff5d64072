package client

// Loader is the client-side firehose: callers Add single insertions and
// the loader coalesces them into InsertBatch calls — a bounded buffer
// with a background flusher, so a tight producer loop rides the batched
// WAL path (one frame, one epoch per batch) instead of one round-trip
// per element. Backpressure is the buffer: when batches are in flight
// and the buffer is full, Add blocks. Every flush is one InsertBatch
// under one idempotency key (minted inside InsertBatch), held constant
// with the body's bytes across the batch's retries, so a transport-level
// replay never double-inserts: the server remembers a batch's key for at
// least 256 later batches of 256 to the same relation, where per-element
// keys reached 16.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LoaderConfig tunes a Loader. Zero values take the defaults.
type LoaderConfig struct {
	// BatchSize is the flush threshold. Default 256 — the same as the
	// server's streaming CSV loader.
	BatchSize int
	// FlushInterval bounds how long a partially-filled batch may wait
	// for more elements. Default 50ms.
	FlushInterval time.Duration
	// Buffer is the Add queue's capacity in elements; a full buffer
	// blocks Add (backpressure). Default 4 * BatchSize.
	Buffer int
	// OnError, when set, observes each failed batch flush (after the
	// client's own retries are exhausted). The loader keeps running
	// either way; the first error is also remembered for Close.
	OnError func(error)
}

// LoaderStats is a point-in-time snapshot of a loader's counters.
type LoaderStats struct {
	Added    int64 // elements accepted by Add
	Stored   int64 // elements the server stored
	Deduped  int64 // elements the server recognized as replays
	Rejected int64 // elements a constraint rejected
	Batches  int64 // InsertBatch calls issued
	Failed   int64 // batches whose flush errored (elements not accounted above)
}

// Loader batches inserts to one relation in the background. Each flush
// is one InsertBatch under one idempotency key, retried with the same
// key and bytes, so a flush whose response was lost is answered from the
// server's dedup window instead of being stored twice.
type Loader struct {
	c   *Client
	rel string
	cfg LoaderConfig

	in   chan loaderMsg
	done chan struct{}

	added, stored, deduped, rejected, batches, failed atomic.Int64

	// sendMu serializes channel sends against Close (which closes the
	// channel); closed is guarded by it.
	sendMu sync.Mutex
	closed bool

	mu       sync.Mutex // guards firstErr
	firstErr error
}

type loaderMsg struct {
	req InsertRequest
	// barrier, when non-nil, requests a flush of everything buffered
	// before it and receives the flush's error (nil on success).
	barrier chan error
}

// NewLoader starts a loader for the relation. Callers must Close it to
// flush the tail and release the flusher goroutine.
func (c *Client) NewLoader(rel string, cfg LoaderConfig) *Loader {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 50 * time.Millisecond
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 4 * cfg.BatchSize
	}
	l := &Loader{
		c:    c,
		rel:  rel,
		cfg:  cfg,
		in:   make(chan loaderMsg, cfg.Buffer),
		done: make(chan struct{}),
	}
	go l.run()
	return l
}

// Add queues one insertion. It blocks when the buffer is full until the
// flusher catches up or ctx is done; after Close it returns an error.
// Sends hold sendMu so a concurrent Close never closes the channel out
// from under a blocked Add.
func (l *Loader) Add(ctx context.Context, req InsertRequest) error {
	if err := l.enqueue(ctx, loaderMsg{req: req}); err != nil {
		return fmt.Errorf("tsdbd: loader add: %w", err)
	}
	l.added.Add(1)
	return nil
}

// Flush forces everything Added so far onto the wire and waits for it,
// returning that flush's error.
func (l *Loader) Flush(ctx context.Context) error {
	barrier := make(chan error, 1)
	if err := l.enqueue(ctx, loaderMsg{barrier: barrier}); err != nil {
		return fmt.Errorf("tsdbd: loader flush: %w", err)
	}
	select {
	case err := <-barrier:
		return err
	case <-ctx.Done():
		return fmt.Errorf("tsdbd: loader flush: %w", ctx.Err())
	}
}

func (l *Loader) enqueue(ctx context.Context, msg loaderMsg) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if l.closed {
		return errors.New("loader is closed")
	}
	select {
	case l.in <- msg:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close flushes the tail, stops the flusher, and returns the first
// flush error observed over the loader's lifetime (nil if every batch
// landed).
func (l *Loader) Close() error {
	l.sendMu.Lock()
	if !l.closed {
		l.closed = true
		close(l.in)
	}
	l.sendMu.Unlock()
	<-l.done
	return l.Err()
}

// Err returns the first flush error observed so far.
func (l *Loader) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

// Stats snapshots the loader's counters.
func (l *Loader) Stats() LoaderStats {
	return LoaderStats{
		Added:    l.added.Load(),
		Stored:   l.stored.Load(),
		Deduped:  l.deduped.Load(),
		Rejected: l.rejected.Load(),
		Batches:  l.batches.Load(),
		Failed:   l.failed.Load(),
	}
}

func (l *Loader) run() {
	defer close(l.done)
	buf := make([]InsertRequest, 0, l.cfg.BatchSize)
	timer := time.NewTimer(l.cfg.FlushInterval)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	flush := func() error {
		if armed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
		if len(buf) == 0 {
			return nil
		}
		err := l.send(buf)
		buf = buf[:0]
		return err
	}
	for {
		var timeout <-chan time.Time
		if armed {
			timeout = timer.C
		}
		select {
		case msg, ok := <-l.in:
			if !ok {
				flush()
				return
			}
			if msg.barrier != nil {
				msg.barrier <- flush()
				continue
			}
			buf = append(buf, msg.req)
			if len(buf) >= l.cfg.BatchSize {
				flush()
			} else if !armed {
				timer.Reset(l.cfg.FlushInterval)
				armed = true
			}
		case <-timeout:
			armed = false
			flush()
		}
	}
}

// send issues one InsertBatch (under the client's retry policy) and
// folds the result into the counters.
func (l *Loader) send(batch []InsertRequest) error {
	l.batches.Add(1)
	res, err := l.c.InsertBatch(context.Background(), l.rel, batch, false)
	if err != nil {
		l.failed.Add(1)
		l.mu.Lock()
		if l.firstErr == nil {
			l.firstErr = err
		}
		l.mu.Unlock()
		if l.cfg.OnError != nil {
			l.cfg.OnError(err)
		}
		return err
	}
	l.stored.Add(int64(res.Stored))
	l.deduped.Add(int64(res.Deduped))
	l.rejected.Add(int64(res.Rejected))
	return nil
}
