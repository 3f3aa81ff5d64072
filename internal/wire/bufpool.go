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
