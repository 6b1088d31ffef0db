package h1

import (
	"io"
	"net/http"
	"slices"
	"sync"
)

// Body is a request body read whole into a pooled buffer.
type Body struct{ B []byte }

var bodies = sync.Pool{New: func() any { return new(Body) }}

// ReadBody reads r's body whole, as io.ReadAll(http.MaxBytesReader(w,
// r.Body, limit)) does, into a pooled Body that the caller frees once
// nothing refers to its bytes. A body whose length is known and within
// limit is read in one piece; any other goes through http.MaxBytesReader,
// so a body over the limit fails with the same error after the same reads.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (*Body, error) {
	b := bodies.Get().(*Body)
	if n := r.ContentLength; n > 0 && n <= limit {
		b.B = slices.Grow(b.B[:0], int(n))[:n]
		if _, err := io.ReadFull(r.Body, b.B); err != nil {
			b.Free()
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return b, nil
	}
	var err error
	if b.B, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		b.Free()
		return nil, err
	}
	return b, nil
}

// Free returns b to the pool; neither b nor its bytes may be used after.
func (b *Body) Free() {
	if cap(b.B) <= maxKept {
		b.B = b.B[:0]
		bodies.Put(b)
	}
}
