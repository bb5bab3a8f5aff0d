// Package pool is the fixture buffer pool the bufsafe contract is
// specified against. The real pooled buffers (DESIGN.md "bufsafe") carry
// the same directives, so one checker covers both.
package pool

// Buf is a pooled buffer.
type Buf struct {
	B []byte
}

var free []*Buf

// Get hands out a pooled buffer the caller must Put back.
//
//swift:pool acquire
func Get() *Buf {
	if n := len(free); n > 0 {
		b := free[n-1]
		free = free[:n-1]
		return b
	}
	return &Buf{B: make([]byte, 0, 1024)}
}

// Put returns a buffer to the pool. The buffer and every alias of it
// are dead after this call.
//
//swift:pool release
func Put(b *Buf) {
	b.B = b.B[:0]
	free = append(free, b)
}
