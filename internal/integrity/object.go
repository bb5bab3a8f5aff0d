package integrity

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"swift/internal/store"
)

// Object wraps a store.Object with the block-checksum envelope: WriteAt
// checksums, ReadAt verifies, and verification failures surface as
// *CorruptError. It implements store.Object with logical (unveloped)
// offsets and sizes, so it is a drop-in replacement for the raw object.
//
// A call moves the whole physical span it touches with one inner store
// call — up to spanBlocks blocks at a time, through a pooled buffer —
// and verifies or checksums each block in place there.
type Object struct {
	inner   store.Object
	bs      int64 // block size
	stride  int64 // HeaderSize + bs
	mu      sync.RWMutex
	corrupt *atomic.Int64 // shared with the owning Store; may be nil
}

// NewObject wraps inner with the envelope at the given block size
// (DefaultBlockSize when <= 0).
func NewObject(inner store.Object, blockSize int64) *Object {
	return newObject(inner, blockSize, nil)
}

func newObject(inner store.Object, blockSize int64, corrupt *atomic.Int64) *Object {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Object{
		inner:   inner,
		bs:      blockSize,
		stride:  HeaderSize + blockSize,
		corrupt: corrupt,
	}
}

// BlockSize returns the envelope's checksum granularity.
func (o *Object) BlockSize() int64 { return o.bs }

// spanBlocks bounds the blocks one inner call covers (1 MiB of 4 KiB
// blocks), so a pooled buffer stays a bounded size however large the
// caller's read or write.
const spanBlocks = 256

// spanBuf is the physical image of a run of blocks: what one inner call
// reads or writes. The pool holds *spanBuf rather than []byte so that
// returning one does not itself allocate.
type spanBuf struct{ b []byte }

var spanPool = sync.Pool{New: func() any { return new(spanBuf) }}

// acquireSpan returns an n-byte span buffer holding whatever its last
// user left in it.
//
//swift:pool acquire
func acquireSpan(n int64) *spanBuf {
	s := spanPool.Get().(*spanBuf)
	s.b = slices.Grow(s.b[:0], int(n))[:n]
	return s
}

// releaseSpan hands a span buffer back once nothing refers to its bytes.
//
//swift:pool release
func releaseSpan(s *spanBuf) { spanPool.Put(s) }

// corruptErr counts and builds the typed error for fault f, found with
// the object at the given logical size.
func (o *Object) corruptErr(f fault, logical int64) error {
	if o.corrupt != nil {
		o.corrupt.Add(1)
	}
	off := f.block * o.bs
	n := logical - off
	if n > o.bs {
		n = o.bs
	}
	if n < 0 {
		n = 0
	}
	return &CorruptError{Offset: off, Length: n, Detail: f.detail()}
}

// min64 stands in for the builtin min, which the package's fuzz test
// shadows with its own int-only one in test builds.
func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// physLen returns how many stored bytes block b has in an object of
// physical size phys: a full stride, less for the tail block, none past
// the end.
func (o *Object) physLen(b, phys int64) int64 {
	return max(0, min64(o.stride, phys-b*o.stride))
}

// readFull fills buf from the inner object at physical offset at; the
// caller sized buf from the physical size, so a short read is an error.
//
//swift:hotpath
func (o *Object) readFull(buf []byte, at int64) error {
	n, err := o.inner.ReadAt(buf, at)
	if n == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// checkBlock verifies block b from its stored bytes raw, in place, and
// returns how many checksummed data bytes follow the header (none for
// a hole, or for a block past the end of the store). logical is the
// object's current logical size.
//
//swift:hotpath
func (o *Object) checkBlock(b int64, raw []byte, logical int64) (valid int64, hole bool, f fault) {
	if len(raw) == 0 {
		return 0, true, fault{}
	}
	if len(raw) < HeaderSize {
		return 0, false, fault{kind: faultShortHeader, block: b}
	}
	hdr, hole, f := parseHeader(raw)
	if f.kind != faultNone {
		f.block = b
		return 0, false, f
	}
	data := raw[HeaderSize:]
	if hole {
		for _, c := range data {
			if c != 0 {
				return 0, false, fault{kind: faultHoleData, block: b}
			}
		}
		return 0, true, fault{}
	}
	length := int64(hdr.Length)
	switch {
	case length > o.bs:
		return 0, false, fault{kind: faultLengthBlock, block: b, a: length, b: o.bs}
	case length > int64(len(data)):
		return 0, false, fault{kind: faultLengthStored, block: b, a: length, b: int64(len(data))}
	case int64(hdr.Index) != b:
		return 0, false, fault{kind: faultIndex, block: b, a: int64(hdr.Index), b: b}
	}
	if sum := Checksum(data[:length]); sum != hdr.Sum {
		return 0, false, fault{kind: faultSum, block: b, a: int64(hdr.Sum), b: int64(sum)}
	}
	// The tail block's stored length is pinned to the physical size;
	// a mismatch means the fragment was truncated or extended behind
	// the envelope's back.
	if nb := (logical + o.bs - 1) / o.bs; b == nb-1 {
		if tail := logical - (nb-1)*o.bs; length != tail {
			return 0, false, fault{kind: faultTail, block: b, a: length, b: tail}
		}
	}
	return length, false, fault{}
}

// sealBlock writes block b's header over blk[:HeaderSize], checksumming
// the data that follows it; len(blk)-HeaderSize becomes the block's
// valid length.
//
//swift:hotpath
func sealBlock(blk []byte, b int64) {
	data := blk[HeaderSize:]
	putHeader(blk, BlockHeader{
		Version: Version,
		Length:  uint32(len(data)),
		Index:   uint32(b),
		Sum:     Checksum(data),
	})
}

// ReadAt implements io.ReaderAt over logical offsets, verifying every
// touched block. Like the raw stores it returns (n, io.EOF) when the
// read extends past the logical size.
func (o *Object) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("integrity: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	phys, err := o.inner.Size()
	if err != nil {
		return 0, err
	}
	logical := LogicalSize(phys, o.bs)
	if off >= logical {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > logical {
		want = logical - off
	}
	var done int64
	for done < want {
		at := off + done
		n := min64(want-done, (at/o.bs+spanBlocks)*o.bs-at)
		got, f, err := o.readSpan(p[done:done+n], at, logical, phys)
		done += int64(got)
		if err = o.spanErr("read", at, f, err, logical); err != nil {
			return int(done), err
		}
	}
	if done < int64(len(p)) {
		return int(done), io.EOF
	}
	return int(done), nil
}

// spanErr turns what a span call reported — a verification fault or an
// inner-store error — into the error the caller sees. Faults become
// errors here, outside the //swift:hotpath functions, so building the
// message never counts against them.
func (o *Object) spanErr(op string, at int64, f fault, err error, logical int64) error {
	if f.kind != faultNone {
		return o.corruptErr(f, logical)
	}
	if err != nil {
		return fmt.Errorf("integrity: %s block %d: %w", op, at/o.bs, err)
	}
	return nil
}

// readSpan fills dst with the logical bytes at off — no more than
// spanBlocks blocks' worth, all inside the logical size — from one inner
// read. It returns the bytes filled from blocks that verified, stopping
// at the first that does not.
//
//swift:hotpath
func (o *Object) readSpan(dst []byte, off, logical, phys int64) (int, fault, error) {
	b0 := off / o.bs
	b1 := (off + int64(len(dst)) - 1) / o.bs
	start := b0 * o.stride
	buf := acquireSpan(min64((b1+1)*o.stride, phys) - start)
	defer releaseSpan(buf)
	if err := o.readFull(buf.b, start); err != nil {
		return 0, fault{}, err
	}
	done := 0
	for b := b0; b <= b1; b++ {
		at := (b - b0) * o.stride
		raw := buf.b[at:min64(at+o.stride, int64(len(buf.b)))]
		valid, _, f := o.checkBlock(b, raw, logical)
		if f.kind != faultNone {
			return done, f, nil
		}
		// Checksummed bytes first, zeros beyond the stored length
		// (sparse blocks read as zeros).
		lo := max(off, b*o.bs) - b*o.bs
		out := dst[done:min64(int64(len(dst)), int64(done)+o.bs-lo)]
		n := 0
		if lo < valid {
			n = copy(out, raw[HeaderSize+lo:HeaderSize+valid])
		}
		clear(out[n:])
		done += len(out)
	}
	return done, fault{}, nil
}

// WriteAt implements io.WriterAt over logical offsets. Whole-block
// overwrites skip the merge read entirely, so rewriting a corrupt block
// in full (the repair path) always succeeds; a partial write over a
// corrupt block fails with *CorruptError because the merge would have
// to trust poisoned bytes.
func (o *Object) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("integrity: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	phys, err := o.inner.Size()
	if err != nil {
		return 0, err
	}
	total := int64(len(p))
	var done int64
	for done < total {
		at := off + done
		n := min64(total-done, (at/o.bs+spanBlocks)*o.bs-at)
		logical := LogicalSize(phys, o.bs)
		end, f, err := o.writeSpan(p[done:done+n], at, logical, phys)
		if err = o.spanErr("write", at, f, err, logical); err != nil {
			return int(done), err
		}
		done += n
		phys = max(phys, end)
	}
	return int(done), nil
}

// writeSpan stores src at logical offset off — no more than spanBlocks
// blocks' worth — as one inner write of the blocks' whole physical
// image. Only the first and last block can be partly covered; each of
// those that holds valid bytes the write does not replace is read,
// verified and merged in place first. It returns the physical offset
// the write ended at.
//
//swift:hotpath
func (o *Object) writeSpan(src []byte, off, logical, phys int64) (end int64, f fault, err error) {
	stop := off + int64(len(src))
	b0 := off / o.bs
	b1 := (stop - 1) / o.bs
	// Every block before the last is written through to its end, so it
	// fills its stride; the last is as long as its valid bytes: where
	// the write ends in it, or where what it holds now ends if that is
	// further.
	lastLen := max(stop-b1*o.bs, min64(o.bs, logical-b1*o.bs))
	start := b0 * o.stride
	buf := acquireSpan((b1-b0)*o.stride + HeaderSize + lastLen)
	defer releaseSpan(buf)
	for b := b0; b <= b1; b++ {
		lo := max(off, b*o.bs) - b*o.bs
		hi := min64(stop, (b+1)*o.bs) - b*o.bs
		newLen := o.bs
		if b == b1 {
			newLen = lastLen
		}
		at := (b - b0) * o.stride
		blk := buf.b[at : at+HeaderSize+newLen]
		if lo > 0 || hi < newLen {
			// Partial cover: bring in what the block holds now and
			// zero the rest, the way a sparse block reads.
			raw := blk[:o.physLen(b, phys)]
			if err := o.readFull(raw, b*o.stride); err != nil {
				return 0, fault{}, err
			}
			valid, _, f := o.checkBlock(b, raw, logical)
			if f.kind != faultNone {
				return 0, f, nil
			}
			clear(blk[HeaderSize+valid:])
		}
		copy(blk[HeaderSize+lo:HeaderSize+hi], src[b*o.bs+lo-off:])
		sealBlock(blk, b)
	}
	if _, err := o.inner.WriteAt(buf.b, start); err != nil {
		return 0, fault{}, err
	}
	return start + int64(len(buf.b)), fault{}, nil
}

// Size returns the logical size.
func (o *Object) Size() (int64, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	phys, err := o.inner.Size()
	if err != nil {
		return 0, err
	}
	return LogicalSize(phys, o.bs), nil
}

// Truncate sets the logical size, rewriting the (new) tail block's
// header so its stored length stays pinned to the physical size.
func (o *Object) Truncate(size int64) error {
	if size < 0 {
		return errors.New("integrity: negative size")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	phys, err := o.inner.Size()
	if err != nil {
		return err
	}
	logical := LogicalSize(phys, o.bs)
	if size == logical {
		return nil
	}
	if size == 0 {
		return o.inner.Truncate(0)
	}
	tb := (size - 1) / o.bs
	if err := o.resizeBlock(tb, size-tb*o.bs, logical, phys); err != nil {
		return err
	}
	return o.inner.Truncate(PhysicalSize(size, o.bs))
}

// resizeBlock rewrites block b with the valid length newLen — cut short,
// or extended with zeros — unless it is a hole or already that long.
func (o *Object) resizeBlock(b, newLen, logical, phys int64) error {
	n := o.physLen(b, phys)
	buf := acquireSpan(max(n, HeaderSize+newLen))
	defer releaseSpan(buf)
	raw := buf.b[:n]
	if err := o.readFull(raw, b*o.stride); err != nil {
		return o.spanErr("read", b*o.bs, fault{}, err, logical)
	}
	valid, hole, f := o.checkBlock(b, raw, logical)
	if f.kind != faultNone {
		return o.corruptErr(f, logical)
	}
	if hole || valid == newLen {
		return nil
	}
	blk := buf.b[:HeaderSize+newLen]
	if newLen > valid {
		clear(blk[HeaderSize+valid:])
	}
	sealBlock(blk, b)
	_, err := o.inner.WriteAt(blk, b*o.stride)
	return err
}

// Sync flushes the inner object.
func (o *Object) Sync() error { return o.inner.Sync() }

// Close closes the inner object.
func (o *Object) Close() error { return o.inner.Close() }
