package wire

import (
	"bytes"
	"io"
	"sync"
)

// Body buffers are pooled so the hot read path (queries answered from the
// snapshot view or the result cache) allocates no encoding buffer per
// request, and so that neither end allocates one to read a body into: a
// parsed body is dead — both codecs copy what they keep. Buffers that grew
// past maxPooledBuffer are dropped instead of returned, so one giant
// rollback response does not pin a megabyte of heap in the pool forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *bytes.Buffer {
	return bufPool.Get().(*bytes.Buffer)
}

// PutBuffer resets b and returns it to the pool (oversized buffers are
// dropped). Callers must not touch b afterwards.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// BufferList is a two-slot free list of body buffers for one owner that
// handles large bodies in a row — a client reading answers, a server encoding
// them. The pool above is emptied by every collection, and a collection is
// what one large body brings on, so whoever takes its buffer from the pool
// allocates, and zeroes, the next body's worth again; what sits in a list
// stays until its owner goes. Two slots serve an owner that overlaps two
// requests; a third concurrent one falls back to the pool. The zero value is
// ready and the methods are safe for concurrent use.
type BufferList struct {
	// Max is the largest buffer the list keeps, so it pins at most two of
	// that size; zero means the pool's cap. Set before first use.
	Max int

	free freeList[bytes.Buffer]
}

// Get returns an empty buffer: one of the list's when it has one.
func (l *BufferList) Get() *bytes.Buffer {
	if b := l.free.get(); b != nil {
		return b
	}
	return GetBuffer()
}

// Put resets b and keeps it in a free slot, or hands it to the pool when
// both are taken (oversized buffers are dropped). Callers must not touch b
// afterwards.
func (l *BufferList) Put(b *bytes.Buffer) {
	if b == nil || b.Cap() > max(l.Max, maxPooledBuffer) {
		return
	}
	b.Reset()
	if !l.free.put(b) {
		PutBuffer(b)
	}
}

// freeList keeps up to two values for the next to ask. Unlike a sync.Pool,
// which every collection empties and the race detector empties at random,
// it keeps them until they are taken. The zero value is ready and the
// methods are safe for concurrent use.
type freeList[T any] struct {
	mu   sync.Mutex
	free [2]*T
}

// get takes a kept value, or returns nil when there is none.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, x := range l.free {
		if x != nil {
			l.free[i] = nil
			return x
		}
	}
	return nil
}

// put keeps x in a free slot and reports whether there was one.
func (l *freeList[T]) put(x *T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, held := range l.free {
		if held == nil {
			l.free[i] = x
			return true
		}
	}
	return false
}

// ReadBody reads r to its end into b, reserving room first for the
// declared length (a Content-Length; negative when unknown) instead of
// growing there by doubling. The declaration is only a hint: no more than
// limit bytes are reserved on its word. On a read error b holds the bytes
// read before it.
func ReadBody(b *bytes.Buffer, r io.Reader, declared, limit int64) error {
	// ReadFrom wants MinRead spare bytes before every read, the one that
	// reports EOF included.
	b.Grow(int(min(max(declared, 0), limit)) + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return err
}
