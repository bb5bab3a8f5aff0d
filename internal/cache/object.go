package cache

import "math/bits"

// Object is the cache view of one named object. It is refcounted by
// Cache.Open/Object.Close; the last Close drops the object's clean
// blocks (dirty blocks must be flushed by the file layer first).
//
// All fields are protected by the owning Cache's mutex. The file layer
// additionally serializes mutations of one object's content under its
// own per-file lock, which is what keeps a flush's view of a dirty
// buffer stable while the lock-free agent RPCs run.
type Object struct {
	c     *Cache
	name  string
	refs  int
	bytes int64 // resident bytes, clean + dirty

	blocks map[int64]*block // residency table, keyed by block index

	// Sequential-stream detector. streamNext is the offset the next
	// sequential read would start at; run counts the consecutive bytes
	// observed; gen is bumped on every seek so in-flight prefetches for
	// the abandoned stream can be recognized and dropped; prefetchHi is
	// the end of the furthest window already suggested, preventing
	// duplicate suggestions for one stream.
	streamNext int64
	run        int64
	gen        uint64
	prefetchHi int64

	// Write-behind bookkeeping: dirtyBytes counts this object's share of
	// the cache-wide budget, and flushErr carries a failed write-back to
	// the next write or sync (never swallowed).
	dirtyBytes int64
	flushErr   error

	// seenGen is the mediator write-generation last adopted from an
	// invalidation; the coherence sync declares it and the mediator
	// answers with objects whose generation has moved past it.
	seenGen uint64
}

// block is one resident cache block: a BlockSize buffer over the object
// at [idx*BlockSize, (idx+1)*BlockSize) plus a mask of which AtomSize
// atoms of it hold the object's image. Only valid atoms are ever served
// or flushed; the rest of buf is whatever the pool handed out. A valid
// atom that straddles or lies past end-of-object is zero-filled there
// (absent bytes read as zeros through the stripe layer, so the images
// agree). Invariant: every byte of a dirty span [dLo,dHi) lies in a
// valid atom — the file layer backs a write's partially covered atoms
// first (MissingBacking), so a flush never hands out unfetched bytes.
type block struct {
	obj   *Object
	idx   int64
	buf   []byte
	valid uint64 // bit a set: atom a of buf is valid

	prev, next *block
	list       *lruList // probation, protected, or nil while dirty (pinned)

	served     bool // touched by a reader since insert (segmented-LRU promotion rule)
	prefetched bool // inserted by read-ahead and not yet touched
	dirty      bool
	dLo, dHi   int // dirty span within buf (valid when dirty)
}

// lruList is an intrusive doubly-linked block list with a sentinel.
type lruList struct {
	root block
}

func (l *lruList) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
}

func (l *lruList) pushFront(b *block) {
	b.prev = &l.root
	b.next = l.root.next
	b.prev.next = b
	b.next.prev = b
}

func (l *lruList) remove(b *block) {
	b.prev.next = b.next
	b.next.prev = b.prev
	b.prev = nil
	b.next = nil
}

func (l *lruList) moveFront(b *block) {
	l.remove(b)
	l.pushFront(b)
}

// tail returns the least-recently-used block, nil when empty.
func (l *lruList) tail() *block {
	if l.root.prev == &l.root {
		return nil
	}
	return l.root.prev
}

// Close releases one reference. The last reference drops the object's
// clean blocks; dirty blocks must have been flushed by the caller (a
// leftover dirty block is kept resident and pinned so the data is never
// silently lost, and the object stays in the table for a later flush).
func (o *Object) Close() {
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	o.refs--
	if o.refs > 0 {
		return
	}
	o.dropCleanLocked()
	if o.dirtyBytes == 0 {
		delete(c.objs, o.name)
	}
}

// dropCleanLocked removes every clean block; c.mu held.
func (o *Object) dropCleanLocked() {
	for _, b := range o.blocks {
		if !b.dirty {
			o.c.dropLocked(b, false)
		}
	}
}

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// SeenGen returns the write-generation last adopted from an
// invalidation.
func (o *Object) SeenGen() uint64 {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	return o.seenGen
}

// AdoptGen records the mediator write-generation the object's cached
// image is now known to reflect.
func (o *Object) AdoptGen(gen uint64) {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if gen > o.seenGen {
		o.seenGen = gen
	}
}

// atomMask has the bits of atoms [lo, hi) set (none when hi <= lo).
func atomMask(lo, hi int) uint64 {
	return (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
}

// ReadCached copies cached bytes for the prefix of [off, off+len(dst))
// into dst and returns how many leading bytes it served. It stops at the
// first byte not in a valid atom; the caller fetches from there and calls
// Insert. Every block served from counts as a hit; a leading miss counts
// nothing (Insert accounts demand misses per block).
//
//swift:hotpath
func (o *Object) ReadCached(dst []byte, off int64) int {
	c := o.c
	bs := c.cfg.BlockSize
	c.mu.Lock()
	served := 0
	for served < len(dst) {
		pos := off + int64(served)
		b := o.blocks[pos/bs]
		if b == nil {
			break
		}
		in := int(pos % bs)
		a := in / AtomSize
		end := (a + bits.TrailingZeros64(^(b.valid >> uint(a)))) * AtomSize
		if end <= in {
			break
		}
		served += copy(dst[served:], b.buf[in:end])
		c.touchLocked(b)
		c.hits.Add(1)
		if end < len(b.buf) {
			break // an invalid atom follows
		}
	}
	c.mu.Unlock()
	return served
}

// validLocked reports whether the atom holding offset off is valid; c.mu
// held.
func (o *Object) validLocked(off int64) bool {
	bs := o.c.cfg.BlockSize
	b := o.blocks[off/bs]
	return b != nil && b.valid>>uint(off%bs/AtomSize)&1 != 0
}

// Missing sizes the fetch for a demand read of [off, off+n) that
// ReadCached could not start. All three results are atom-aligned: lo is
// off rounded down, [lo, hi) covers every invalid atom of the range, and
// run (lo <= run <= hi) ends the leading run of invalid atoms — the
// caller may serve itself from the fetch up to run, but must come back
// through ReadCached from there: the valid atom at run may be dirty, and
// so newer than anything the agents hold.
func (o *Object) Missing(off, n int64) (lo, run, hi int64) {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	lo = off - off%AtomSize
	run, hi = lo, lo
	for a := lo; a < off+n; a += AtomSize {
		if o.validLocked(a) {
			continue
		}
		if run == a { // every atom so far was invalid
			run = a + AtomSize
		}
		hi = a + AtomSize
	}
	return lo, run, hi
}

// Contains reports whether every byte of [off, off+n) is in a valid atom
// — the prefetch worker's re-check before fetching, and a test hook.
func (o *Object) Contains(off, n int64) bool {
	lo, _, hi := o.Missing(off, n)
	return lo == hi
}

// Insert copies fetched bytes into the cache. off must be atom-aligned;
// a short tail (a fetch clamped at end-of-object) has the rest of its
// final atom zero-filled, which matches what the stripe layer reads for
// absent bytes. Valid atoms are never overwritten — they are at least as
// fresh as the fetch (a racing write refreshes or dirties them under the
// file lock). A demand insert counts one miss per block it fills, and
// filling a block that is already resident is a reference (hot blocks
// are promoted while they fill); prefetched marks new blocks for
// read-ahead accounting. Insert reports false when a block could not be
// placed because the capacity is full of pinned dirty blocks.
func (o *Object) Insert(off int64, p []byte, prefetched bool) bool {
	c := o.c
	bs := c.cfg.BlockSize
	if off%AtomSize != 0 {
		panic("cache: Insert offset not atom-aligned")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for in := 0; in < len(p); {
		pos := off + int64(in)
		first := int(pos%bs) / AtomSize
		span := min(len(p)-in, int(bs)-first*AtomSize)
		src := p[in : in+span]
		in += span
		last := first + (span+AtomSize-1)/AtomSize
		fill := atomMask(first, last)
		b := o.blocks[pos/bs]
		if b != nil {
			fill &^= b.valid
		}
		if fill == 0 {
			continue
		}
		if b == nil {
			c.ensureRoomLocked(bs)
			if c.probBytes+c.protBytes+c.dirty+bs > c.cfg.Capacity {
				return false // wedged: capacity full of pinned dirty blocks
			}
			b = &block{obj: o, idx: pos / bs, buf: c.acquireBuf(), prefetched: prefetched}
			o.blocks[b.idx] = b
			o.bytes += bs
			c.probation.pushFront(b)
			b.list = &c.probation
			c.probBytes += bs
			if prefetched {
				c.raIssued.Add(1)
			}
		} else if !prefetched {
			c.touchLocked(b)
		}
		if !prefetched {
			c.misses.Add(1)
		}
		filled := 0
		for a := first; a < last; a++ {
			if fill>>uint(a)&1 == 0 {
				continue
			}
			atom := b.buf[a*AtomSize : (a+1)*AtomSize]
			n := copy(atom, src[(a-first)*AtomSize:])
			clear(atom[n:])
			filled += n
		}
		b.valid |= fill
		c.fillBytes.Add(int64(filled))
	}
	return true
}

// MissingBacking returns the first atom-aligned range that must be
// fetched and Inserted before Write can absorb [off, off+n) into an
// object with size bytes on disk. Write leaves every atom valid that the
// block's dirty span — widened over the gap to an earlier span — touches,
// so backing is needed for each invalid atom in that hull holding on-disk
// bytes the write does not itself cover. The caller loops: fetch, Insert,
// ask again.
func (o *Object) MissingBacking(off, n, size int64) (boff, blen int64, ok bool) {
	c := o.c
	bs := c.cfg.BlockSize
	wEnd := off + n
	c.mu.Lock()
	defer c.mu.Unlock()
	for idx := off / bs; idx*bs < wEnd; idx++ {
		lo, hi := max(off, idx*bs), min(wEnd, (idx+1)*bs)
		if b := o.blocks[idx]; b != nil && b.dirty {
			lo, hi = min(lo, idx*bs+int64(b.dLo)), max(hi, idx*bs+int64(b.dHi))
		}
		for a := lo - lo%AtomSize; a < hi; a += AtomSize {
			onDisk := min(a+AtomSize, size)
			if !o.validLocked(a) && a < onDisk && (a < off || onDisk > wEnd) {
				if blen == 0 {
					boff = a
				}
				blen += AtomSize
			} else if blen > 0 {
				return boff, blen, true
			}
		}
	}
	return boff, blen, blen > 0
}

// Write absorbs p at off into dirty blocks (write-behind). Atoms holding
// on-disk bytes the write does not cover must already be valid (see
// MissingBacking), so an invalid atom the dirty span comes to touch has
// no image outside the written bytes and zeros complete it. Dirty blocks
// are pinned out of the eviction lists until FlushDone.
func (o *Object) Write(off int64, p []byte) {
	c := o.c
	bs := c.cfg.BlockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	for in := 0; in < len(p); {
		pos := off + int64(in)
		idx := pos / bs
		b := o.blocks[idx]
		if b == nil {
			c.ensureRoomLocked(bs)
			b = &block{obj: o, idx: idx, buf: c.acquireBuf()}
			o.blocks[idx] = b
			o.bytes += bs
		}
		lo := int(pos % bs)
		hi := min(lo+len(p)-in, int(bs))
		dLo, dHi := lo, hi
		if b.dirty {
			// One span per block: widen over the gap. Its atoms are valid
			// or about to be, so the flush rewrites the object's own image.
			dLo, dHi = min(lo, b.dLo), max(hi, b.dHi)
		} else {
			b.dirty = true
			if b.list != nil { // pin: out of the eviction lists
				if b.list == &c.probation {
					c.probBytes -= bs
				} else {
					c.protBytes -= bs
				}
				b.list.remove(b)
				b.list = nil
			}
			c.dirty += bs
			o.dirtyBytes += bs
		}
		for a := dLo / AtomSize; a*AtomSize < dHi; a++ {
			if b.valid>>uint(a)&1 == 0 {
				clear(b.buf[a*AtomSize : (a+1)*AtomSize])
			}
		}
		b.valid |= atomMask(dLo/AtomSize, (dHi+AtomSize-1)/AtomSize)
		b.dLo, b.dHi = dLo, dHi
		in += copy(b.buf[lo:hi], p[in:])
	}
}

// Refresh folds a completed write-through of p at off into the blocks
// already resident, so the hot set survives a write phase. The bytes
// land in every resident block they overlap: an atom the write covers
// whole becomes valid, a valid atom it covers in part stays valid (its
// image was the agents', and now both hold the patch), an invalid one
// stays invalid. Nothing is created or dropped, and the stream detector
// is left alone.
func (o *Object) Refresh(off int64, p []byte) {
	c := o.c
	bs := c.cfg.BlockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	for in := 0; in < len(p); {
		pos := off + int64(in)
		lo := int(pos % bs)
		hi := min(lo+len(p)-in, int(bs))
		if b := o.blocks[pos/bs]; b != nil {
			copy(b.buf[lo:hi], p[in:])
			b.valid |= atomMask((lo+AtomSize-1)/AtomSize, hi/AtomSize)
		}
		in += hi - lo
	}
}

// SequentialAt reports whether a read starting at off continues the
// object's current sequential stream — the file layer widens a demand
// fetch from the atoms asked for to whole blocks and the read-ahead
// window exactly then.
func (o *Object) SequentialAt(off int64) bool {
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return off == o.streamNext
}

// NextFlush returns the lowest-offset dirty extent as (off, view into
// the block buffer). The view stays stable while the caller holds the
// file lock (writers mutate blocks only under it) and dirty blocks are
// never evicted. After writing it back, call FlushDone (or FlushFail).
func (o *Object) NextFlush() (off int64, p []byte, ok bool) {
	c := o.c
	bs := c.cfg.BlockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *block
	for _, b := range o.blocks {
		if b.dirty && (best == nil || b.idx < best.idx) {
			best = b
		}
	}
	if best == nil {
		return 0, nil, false
	}
	return best.idx*bs + int64(best.dLo), best.buf[best.dLo:best.dHi], true
}

// FlushDone marks the dirty extent returned by NextFlush clean. The
// block unpins into the protected segment — it was written recently and
// a write-behind pattern re-reads its own output often enough that
// probation would thrash it.
func (o *Object) FlushDone(off int64) {
	c := o.c
	bs := c.cfg.BlockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	b := o.blocks[off/bs]
	if b == nil || !b.dirty {
		return
	}
	b.dirty = false
	b.served = true
	c.dirty -= bs
	o.dirtyBytes -= bs
	c.flushes.Add(1)
	c.protected.pushFront(b)
	b.list = &c.protected
	c.protBytes += bs
	c.ensureRoomLocked(0)
	c.wakeWaitersLocked()
}

// FlushFail records a failed write-back. The extent stays dirty (and
// will be retried); the error re-surfaces on the next write or sync.
func (o *Object) FlushFail(err error) {
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if o.flushErr == nil {
		o.flushErr = err
	}
	c.flushErrors.Add(1)
}

// TakeFlushErr returns and clears a pending write-back error.
func (o *Object) TakeFlushErr() error {
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	err := o.flushErr
	o.flushErr = nil
	return err
}

// DirtyBytes reports this object's unflushed bytes.
func (o *Object) DirtyBytes() int64 {
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return o.dirtyBytes
}

// Invalidate drops every block overlapping [off, off+n): the truncate
// path, and a write-through that failed part-way (some agents may have
// applied their bursts, so the cached image can no longer be trusted).
// Dirty blocks in range are dropped too — callers flush first when the
// dirty data must survive.
func (o *Object) Invalidate(off, n int64) {
	c := o.c
	bs := c.cfg.BlockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	lo, hi := off/bs, (off+n+bs-1)/bs
	if hi-lo > int64(len(o.blocks)) {
		// The range spans more blocks than are resident (e.g. the
		// whole-object 1<<62 sentinel): sweep residency, not the range.
		for idx, b := range o.blocks {
			if idx >= lo && idx < hi {
				o.invalidateBlockLocked(b)
			}
		}
	} else {
		for idx := lo; idx < hi; idx++ {
			if b := o.blocks[idx]; b != nil {
				o.invalidateBlockLocked(b)
			}
		}
	}
	o.resetStreamLocked()
}

// invalidateBlockLocked drops one block, settling dirty accounting
// first; c.mu held.
func (o *Object) invalidateBlockLocked(b *block) {
	c := o.c
	if b.dirty {
		b.dirty = false
		c.dirty -= c.cfg.BlockSize
		o.dirtyBytes -= c.cfg.BlockSize
		c.wakeWaitersLocked()
	}
	c.dropLocked(b, false)
}

// InvalidateAll drops the object's entire cached image — the coherence
// path when another client wrote the object, counted as one
// invalidation. gen, when nonzero, is adopted as the write-generation
// the next fetch will reflect. Dirty blocks must be flushed first.
func (o *Object) InvalidateAll(gen uint64) {
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range o.blocks {
		if b.dirty {
			b.dirty = false
			c.dirty -= c.cfg.BlockSize
			o.dirtyBytes -= c.cfg.BlockSize
			c.wakeWaitersLocked()
		}
		c.dropLocked(b, false)
	}
	if gen > o.seenGen {
		o.seenGen = gen
	}
	o.resetStreamLocked()
	c.invalidations.Add(1)
}

// resetStreamLocked abandons the current sequential stream; c.mu held.
// Bumping gen cancels in-flight prefetches (their results are dropped by
// the worker's gen check).
func (o *Object) resetStreamLocked() {
	o.run = 0
	o.gen++
	o.prefetchHi = 0
}

// StreamGen returns the current stream generation; a prefetch worker
// re-checks it before inserting so a seek cancels in-flight read-ahead.
func (o *Object) StreamGen() uint64 {
	c := o.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return o.gen
}

// NoteRead feeds the stream detector (and the ReadBytes count) after
// serving [off, off+n) of an object currently size bytes long, and
// returns the read-ahead window
// the caller should prefetch asynchronously (plen == 0: none). A window
// is suggested once per stream position, block-aligned, clamped to the
// object size, and only after a full block of sequential progress.
func (o *Object) NoteRead(off, n, size int64) (poff, plen int64, gen uint64) {
	c := o.c
	bs := c.cfg.BlockSize
	c.readBytes.Add(n)
	c.mu.Lock()
	defer c.mu.Unlock()
	if off != o.streamNext {
		o.resetStreamLocked()
		o.run = n
	} else {
		o.run += n
	}
	o.streamNext = off + n
	if c.cfg.ReadAhead <= 0 || o.run < bs {
		return 0, 0, o.gen
	}
	start := o.streamNext
	if r := start % bs; r != 0 {
		start += bs - r
	}
	if start < o.prefetchHi {
		start = o.prefetchHi
	}
	end := o.streamNext + c.cfg.ReadAhead
	if r := end % bs; r != 0 {
		end += bs - r
	}
	if end > size {
		end = size
	}
	if end <= start {
		return 0, 0, o.gen
	}
	o.prefetchHi = end
	return start, end - start, o.gen
}
