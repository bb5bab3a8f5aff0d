package cache

import (
	"bytes"
	"errors"
	"testing"

	"swift/internal/integrity"
)

const bs = 4096 // test block size

func testCache(t *testing.T, capBlocks int, cfg Config) *Cache {
	t.Helper()
	cfg.BlockSize = bs
	cfg.Capacity = int64(capBlocks) * bs
	return New(cfg, nil)
}

// abs is the block size of the multi-atom tests: four atoms a block.
const abs = 4 * AtomSize

func atomCache(capBlocks int, cfg Config) *Cache {
	cfg.BlockSize = abs
	cfg.Capacity = int64(capBlocks) * abs
	return New(cfg, nil)
}

// fill returns a deterministic pattern for [off, off+n) so reads can be
// verified byte-exactly regardless of which blocks served them.
func fill(off int64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((off + int64(i)) * 7)
	}
	return p
}

// insertBlocks demand-inserts whole blocks [first, first+count).
func insertBlocks(o *Object, first, count int64) {
	for i := first; i < first+count; i++ {
		o.Insert(i*bs, fill(i*bs, bs), false)
	}
}

func TestReadCachedRoundTrip(t *testing.T) {
	c := testCache(t, 8, Config{})
	o := c.Open("obj")
	defer o.Close()

	insertBlocks(o, 0, 3)
	// Unaligned span across all three blocks.
	dst := make([]byte, 2*bs)
	n := o.ReadCached(dst, 100)
	if n != len(dst) {
		t.Fatalf("ReadCached served %d of %d", n, len(dst))
	}
	if !bytes.Equal(dst, fill(100, len(dst))) {
		t.Fatal("ReadCached returned wrong bytes")
	}
	// A hole stops service at its edge.
	n = o.ReadCached(dst, 2*bs+10)
	if want := bs - 10; n != want {
		t.Fatalf("ReadCached across hole served %d, want %d", n, want)
	}
	if c.Stats().Hits == 0 {
		t.Fatal("no hits counted")
	}
}

func TestEvictionBoundsResidency(t *testing.T) {
	c := testCache(t, 4, Config{})
	o := c.Open("obj")
	defer o.Close()

	insertBlocks(o, 0, 10)
	if got := c.Stats().Bytes; got > 4*bs {
		t.Fatalf("resident %d bytes, capacity %d", got, 4*bs)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

// TestScanResistance pins the 2Q property: a working set that has been
// re-referenced survives a one-pass scan that is larger than the whole
// cache.
func TestScanResistance(t *testing.T) {
	c := testCache(t, 8, Config{})
	hot := c.Open("hot")
	defer hot.Close()
	scan := c.Open("scan")
	defer scan.Close()

	// Build the hot set: insert two blocks and touch them twice — the
	// second touch promotes them into the protected segment.
	insertBlocks(hot, 0, 2)
	dst := make([]byte, bs)
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < 2; i++ {
			if n := hot.ReadCached(dst, i*bs); n != bs {
				t.Fatalf("hot pass %d block %d: served %d", pass, i, n)
			}
		}
	}

	// Stream a 32-block scan through the 8-block cache, touching each
	// block exactly once, as a sequential reader does.
	for i := int64(0); i < 32; i++ {
		scan.Insert(i*bs, fill(i*bs, bs), false)
		if n := scan.ReadCached(dst, i*bs); n != bs {
			t.Fatalf("scan block %d: served %d", i, n)
		}
	}

	// The hot set must still be resident.
	for i := int64(0); i < 2; i++ {
		if !hot.Contains(i*bs, bs) {
			t.Fatalf("scan evicted hot block %d", i)
		}
	}
}

func TestInsertSkipsResidentBlocks(t *testing.T) {
	c := testCache(t, 8, Config{})
	o := c.Open("obj")
	defer o.Close()

	o.Insert(0, fill(0, bs), false)
	// A racing stale fetch must not clobber the resident block.
	o.Insert(0, make([]byte, bs), false)
	dst := make([]byte, bs)
	o.ReadCached(dst, 0)
	if !bytes.Equal(dst, fill(0, bs)) {
		t.Fatal("re-insert clobbered a resident block")
	}
}

func TestWriteBehindFlushOrderAndAccounting(t *testing.T) {
	c := testCache(t, 8, Config{WriteBehindMax: 4 * bs})
	o := c.Open("obj")
	defer o.Close()

	// Three dirty extents, absorbed out of offset order. None needs
	// backing: each write covers its block up to the object size.
	o.Write(2*bs, fill(2*bs, bs))
	o.Write(0, fill(0, bs))
	if got := c.DirtyBytes(); got != 2*bs {
		t.Fatalf("dirty = %d, want %d", got, 2*bs)
	}

	// Flush drains lowest offset first.
	off, p, ok := o.NextFlush()
	if !ok || off != 0 || len(p) != bs {
		t.Fatalf("NextFlush = (%d, %d, %v), want (0, %d, true)", off, len(p), ok, bs)
	}
	if !bytes.Equal(p, fill(0, bs)) {
		t.Fatal("flush view has wrong bytes")
	}
	o.FlushDone(off)
	off, _, ok = o.NextFlush()
	if !ok || off != 2*bs {
		t.Fatalf("NextFlush = (%d, _, %v), want (%d, _, true)", off, ok, 2*bs)
	}
	o.FlushDone(off)
	if _, _, ok = o.NextFlush(); ok {
		t.Fatal("NextFlush found dirty data after full drain")
	}
	if got := c.DirtyBytes(); got != 0 {
		t.Fatalf("dirty = %d after drain", got)
	}
	// Flushed blocks stay resident and readable.
	dst := make([]byte, bs)
	if n := o.ReadCached(dst, 2*bs); n != bs || !bytes.Equal(dst, fill(2*bs, bs)) {
		t.Fatal("flushed block lost or corrupt")
	}
	if c.Stats().Flushes != 2 {
		t.Fatalf("flushes = %d, want 2", c.Stats().Flushes)
	}
}

func TestWritePartialBlockTracksDirtySpan(t *testing.T) {
	c := testCache(t, 8, Config{WriteBehindMax: 4 * bs})
	o := c.Open("obj")
	defer o.Close()

	// Back the block first (the file layer would, via MissingBacking).
	o.Insert(0, fill(0, bs), false)
	patch := []byte("patched")
	o.Write(10, patch)
	off, p, ok := o.NextFlush()
	if !ok || off != 10 || !bytes.Equal(p, patch) {
		t.Fatalf("NextFlush = (%d, %q, %v), want (10, %q, true)", off, p, ok, patch)
	}
	o.FlushDone(off)

	// The block image holds the patch over the backing.
	dst := make([]byte, bs)
	o.ReadCached(dst, 0)
	want := fill(0, bs)
	copy(want[10:], patch)
	if !bytes.Equal(dst, want) {
		t.Fatal("patched block image is wrong")
	}
}

// TestMissingBacking pins the dirty-span invariant at atom granularity:
// a write needs backing for exactly the invalid atoms its dirty span will
// touch that hold on-disk bytes the write does not cover — never for the
// whole block — and the span Write leaves behind lies in valid atoms.
func TestMissingBacking(t *testing.T) {
	c := atomCache(8, Config{WriteBehindMax: 4 * abs})
	o := c.Open("obj")
	defer o.Close()
	const size = 3 * abs
	want := func(what string, off, n, woff, wlen int64) {
		t.Helper()
		boff, blen, ok := o.MissingBacking(off, n, size)
		if ok != (wlen > 0) || boff != woff || blen != wlen {
			t.Fatalf("%s: MissingBacking(%d,%d) = (%d, %d, %v), want (%d, %d)", what, off, n, boff, blen, ok, woff, wlen)
		}
	}

	// Partial write inside one atom of an unbacked block: that atom only.
	want("partial atom", AtomSize+10, 20, AtomSize, AtomSize)
	// Both edges partial, the atom between fully covered: leading edge
	// first; once it is in, the trailing edge.
	want("two edges", 10, 2*AtomSize, 0, AtomSize)
	o.Insert(0, fill(0, AtomSize), false)
	want("trailing edge", 10, 2*AtomSize, 2*AtomSize, AtomSize)
	// Atom-aligned and whole-block writes: no backing.
	want("whole atom", abs+AtomSize, AtomSize, 0, 0)
	want("whole block", abs, abs, 0, 0)
	// A write from exactly EOF onwards has no on-disk bytes to preserve;
	// one ending short of EOF inside the last atom does.
	want("append at EOF", size, abs, 0, 0)
	want("tail atom", size-AtomSize, 100, size-AtomSize, AtomSize)
	// Valid atoms need no backing.
	want("valid atom", 10, 20, 0, 0)

	// The hull: a second write to a dirty block widens its one dirty span
	// over the gap, so every invalid atom in the gap needs backing too.
	o.Write(10, fill(10, 20))
	want("gap atoms", 3*AtomSize, AtomSize, AtomSize, 2*AtomSize)
	o.Insert(AtomSize, fill(AtomSize, 2*AtomSize), false)
	want("gap backed", 3*AtomSize, AtomSize, 0, 0)
	o.Write(3*AtomSize, fill(3*AtomSize, AtomSize))
	off, p, ok := o.NextFlush()
	if !ok || off != 10 || len(p) != abs-10 {
		t.Fatalf("NextFlush = (%d, %d, %v), want (10, %d, true)", off, len(p), ok, abs-10)
	}
	if !o.Contains(off, int64(len(p))) {
		t.Fatal("dirty span reaches into an invalid atom")
	}
	if !bytes.Equal(p, fill(10, abs-10)) {
		t.Fatal("dirty span holds bytes that are not the object's image")
	}
	o.FlushDone(off)
}

func TestBudgetWaitBackpressure(t *testing.T) {
	c := testCache(t, 8, Config{WriteBehindMax: 2 * bs})
	o := c.Open("obj")
	defer o.Close()

	o.Write(0, fill(0, 2*bs))
	if ch := c.BudgetWait(); ch != nil {
		t.Fatal("BudgetWait parked at exactly the budget")
	}
	o.Write(2*bs, fill(2*bs, bs))
	ch := c.BudgetWait()
	if ch == nil {
		t.Fatal("BudgetWait did not park over budget")
	}
	select {
	case <-ch:
		t.Fatal("budget channel closed while still over budget")
	default:
	}
	off, _, _ := o.NextFlush()
	o.FlushDone(off)
	select {
	case <-ch:
	default:
		t.Fatal("budget channel still open after draining below budget")
	}
	if c.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", c.Stats().Stalls)
	}
}

func TestFlushErrorResurfaces(t *testing.T) {
	c := testCache(t, 8, Config{WriteBehindMax: 4 * bs})
	o := c.Open("obj")
	defer o.Close()

	o.Write(0, fill(0, bs))
	boom := errors.New("agent lost")
	o.FlushFail(boom)
	if err := o.TakeFlushErr(); !errors.Is(err, boom) {
		t.Fatalf("TakeFlushErr = %v, want %v", err, boom)
	}
	if err := o.TakeFlushErr(); err != nil {
		t.Fatalf("flush error reported twice: %v", err)
	}
	// The extent is still dirty and retryable.
	if _, _, ok := o.NextFlush(); !ok {
		t.Fatal("failed flush dropped the dirty extent")
	}
	off, _, _ := o.NextFlush()
	o.FlushDone(off)
}

func TestDirtyBlocksAreNeverEvicted(t *testing.T) {
	c := testCache(t, 4, Config{WriteBehindMax: 2 * bs})
	o := c.Open("obj")
	defer o.Close()

	o.Write(0, fill(0, 2*bs))
	// Stream three times the capacity through the cache.
	for i := int64(10); i < 22; i++ {
		o.Insert(i*bs, fill(i*bs, bs), false)
	}
	if _, _, ok := o.NextFlush(); !ok {
		t.Fatal("dirty data evicted by clean pressure")
	}
	dst := make([]byte, 2*bs)
	if n := o.ReadCached(dst, 0); n != 2*bs || !bytes.Equal(dst, fill(0, 2*bs)) {
		t.Fatal("dirty blocks lost bytes under pressure")
	}
	for off, p, ok := o.NextFlush(); ok; off, p, ok = o.NextFlush() {
		_ = p
		o.FlushDone(off)
	}
}

func TestInvalidateDropsAndCancelsStream(t *testing.T) {
	c := testCache(t, 8, Config{ReadAhead: 2 * bs})
	o := c.Open("obj")
	defer o.Close()

	insertBlocks(o, 0, 4)
	gen := o.StreamGen()
	o.Invalidate(bs, 1)
	if o.Contains(bs, 1) {
		t.Fatal("invalidated block still resident")
	}
	if !o.Contains(0, bs) {
		t.Fatal("invalidate dropped an unrelated block")
	}
	if o.StreamGen() == gen {
		t.Fatal("invalidate did not cancel the stream")
	}
}

func TestInvalidateAllAdoptsGeneration(t *testing.T) {
	c := testCache(t, 8, Config{})
	o := c.Open("obj")
	defer o.Close()

	insertBlocks(o, 0, 3)
	o.InvalidateAll(7)
	if o.Contains(0, 3*bs) {
		t.Fatal("InvalidateAll left blocks resident")
	}
	if got := o.SeenGen(); got != 7 {
		t.Fatalf("SeenGen = %d, want 7", got)
	}
	// Generations never move backwards.
	o.InvalidateAll(3)
	if got := o.SeenGen(); got != 7 {
		t.Fatalf("SeenGen = %d after stale invalidation, want 7", got)
	}
	if c.Stats().Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", c.Stats().Invalidations)
	}
}

func TestStreamDetectionSuggestsWindows(t *testing.T) {
	const size = 64 * bs
	c := testCache(t, 32, Config{ReadAhead: 4 * bs})
	o := c.Open("obj")
	defer o.Close()

	// Sequential progress below one block: no suggestion yet.
	poff, plen, _ := o.NoteRead(0, bs/2, size)
	if plen != 0 {
		t.Fatalf("early suggestion at run %d: (%d,%d)", bs/2, poff, plen)
	}
	// Crossing a block of run: suggest the window after the stream.
	poff, plen, gen := o.NoteRead(bs/2, bs/2, size)
	if plen == 0 {
		t.Fatal("no suggestion after a block of sequential run")
	}
	if poff%bs != 0 || plen%bs != 0 {
		t.Fatalf("suggestion (%d,%d) not block-aligned", poff, plen)
	}
	if poff != bs || plen != 4*bs {
		t.Fatalf("suggestion (%d,%d), want (%d,%d)", poff, plen, bs, 4*bs)
	}
	// The stream keeps the pipeline ahead without re-suggesting bytes:
	// the next suggestion starts where the previous window ended.
	poff2, plen2, _ := o.NoteRead(bs, bs/2, size)
	if plen2 != 0 && poff2 < poff+plen {
		t.Fatalf("suggestion (%d,%d) overlaps the previous window ending at %d", poff2, plen2, poff+plen)
	}
	// A seek resets the stream and bumps the generation.
	_, _, gen2 := o.NoteRead(30*bs, bs, size)
	if gen2 == gen {
		t.Fatal("seek did not bump the stream generation")
	}
	// Suggestions clamp at the object size.
	o.NoteRead(62*bs, bs, size)
	poff, plen, _ = o.NoteRead(63*bs, bs, size)
	if plen != 0 {
		t.Fatalf("suggestion (%d,%d) past EOF", poff, plen)
	}
}

func TestReadAheadAccounting(t *testing.T) {
	c := testCache(t, 4, Config{ReadAhead: 4 * bs})
	o := c.Open("obj")
	defer o.Close()

	o.Insert(0, fill(0, bs), true) // prefetched, then used
	dst := make([]byte, bs)
	o.ReadCached(dst, 0)
	o.Insert(bs, fill(bs, bs), true) // prefetched, never used
	o.InvalidateAll(0)
	s := c.Stats()
	if s.ReadAheadIssued != 2 || s.ReadAheadUsed != 1 || s.ReadAheadWasted != 1 {
		t.Fatalf("read-ahead issued/used/wasted = %d/%d/%d, want 2/1/1",
			s.ReadAheadIssued, s.ReadAheadUsed, s.ReadAheadWasted)
	}
}

func TestObjectsEnumeratesLiveObjects(t *testing.T) {
	c := testCache(t, 8, Config{})
	a := c.Open("a")
	b := c.Open("b")
	b.AdoptGen(5)
	got := map[string]uint64{}
	c.Objects(func(name string, gen uint64) { got[name] = gen })
	if len(got) != 2 || got["a"] != 0 || got["b"] != 5 {
		t.Fatalf("Objects = %v", got)
	}
	a.Close()
	b.Close()
	got = map[string]uint64{}
	c.Objects(func(name string, gen uint64) { got[name] = gen })
	if len(got) != 0 {
		t.Fatalf("closed objects still enumerated: %v", got)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("idle hit rate nonzero")
	}
	s.Hits, s.Misses = 3, 1
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
}

// TestAtomGranularFill pins the per-atom validity rules: a partial Insert
// makes only its atoms servable, ReadCached stops at the first invalid
// atom, Missing sizes the fetch, a valid atom is never overwritten, and
// fills are counted in bytes and as one miss per block touched.
func TestAtomGranularFill(t *testing.T) {
	if AtomSize != integrity.DefaultBlockSize {
		t.Fatalf("AtomSize = %d, the at-rest checksum block is %d", AtomSize, integrity.DefaultBlockSize)
	}
	c := atomCache(4, Config{})
	o := c.Open("obj")
	defer o.Close()

	o.Insert(AtomSize, fill(AtomSize, AtomSize), false)
	if s := c.Stats(); s.Misses != 1 || s.FillBytes != AtomSize || s.Bytes != abs {
		t.Fatalf("after one atom: misses=%d fill=%d resident=%d, want 1/%d/%d", s.Misses, s.FillBytes, s.Bytes, AtomSize, abs)
	}
	dst := make([]byte, abs)
	if n := o.ReadCached(dst, 0); n != 0 {
		t.Fatalf("ReadCached served %d bytes from an invalid atom", n)
	}
	if n := o.ReadCached(dst, AtomSize+5); n != AtomSize-5 || !bytes.Equal(dst[:n], fill(AtomSize+5, n)) {
		t.Fatalf("ReadCached from the valid atom served %d, want %d exact bytes", n, AtomSize-5)
	}
	// Atoms 0 and 2.. are missing; the leading run ends at valid atom 1.
	if lo, run, hi := o.Missing(100, abs+50); lo != 0 || run != AtomSize || hi != abs+AtomSize {
		t.Fatalf("Missing = (%d, %d, %d), want (0, %d, %d)", lo, run, hi, AtomSize, abs+AtomSize)
	}
	if o.Contains(0, 1) || !o.Contains(AtomSize, AtomSize) {
		t.Fatal("Contains disagrees with the atom mask")
	}

	// A fetch of the whole block fills around the valid atom, which keeps
	// its (possibly newer) bytes.
	o.Write(AtomSize, []byte("newer"))
	o.Insert(0, make([]byte, abs), false)
	want := make([]byte, abs)
	copy(want[AtomSize:], fill(AtomSize, AtomSize))
	copy(want[AtomSize:], "newer")
	if n := o.ReadCached(dst, 0); n != abs || !bytes.Equal(dst, want) {
		t.Fatalf("after the covering fetch: served %d of %d, or the valid atom was overwritten", n, abs)
	}
	if s := c.Stats(); s.Misses != 2 || s.FillBytes != abs {
		t.Fatalf("misses=%d fill=%d, want 2/%d", s.Misses, s.FillBytes, abs)
	}
	off, _, _ := o.NextFlush()
	o.FlushDone(off)

	// A fetch clamped at end-of-object zero-fills the rest of its atom
	// and leaves the atoms past it invalid.
	o.Insert(abs, fill(abs, 100), false)
	if n := o.ReadCached(dst, abs); n != AtomSize || !bytes.Equal(dst[:100], fill(abs, 100)) || !bytes.Equal(dst[100:n], make([]byte, n-100)) {
		t.Fatalf("tail atom served %d bytes, want %d zero-filled past 100", n, AtomSize)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Insert accepted an offset that is not atom-aligned")
		}
	}()
	o.Insert(100, fill(100, AtomSize), false)
}

// TestDemandFillIsAReference pins the promotion rule for blocks that fill
// one random read at a time: each demand fill into a resident block
// counts as a 2Q reference, so a hot block reaches the protected segment
// while it fills and survives a scan; a block filled once does not.
func TestDemandFillIsAReference(t *testing.T) {
	c := atomCache(4, Config{})
	o := c.Open("obj")
	defer o.Close()

	for a := int64(0); a < 3; a++ { // three separate misses on block 0
		o.Insert(a*AtomSize, fill(a*AtomSize, AtomSize), false)
	}
	o.Insert(abs, fill(abs, AtomSize), false) // block 1: one miss
	before := c.Stats().Evictions
	for i := int64(2); i < 6; i++ { // a four-block scan through four slots
		o.Insert(i*abs, fill(i*abs, abs), false)
	}
	if !o.Contains(0, 3*AtomSize) {
		t.Fatal("scan evicted the block that three demand fills had referenced")
	}
	if o.Contains(abs, AtomSize) {
		t.Fatal("scan left the once-filled block resident")
	}
	// A sparse block costs a whole slot: every whole-block insert into
	// the full cache evicted exactly one block.
	if got := c.Stats().Evictions - before; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	if got := c.Stats().Bytes; got != 4*abs {
		t.Fatalf("resident = %d, want %d", got, 4*abs)
	}
}

// TestRefreshKeepsResidentBlocks pins the write-through rule: resident
// blocks take the written bytes — whole atoms become valid, valid atoms
// covered in part are patched, invalid ones stay invalid — and nothing is
// created, dropped, counted as a miss or cancelled.
func TestRefreshKeepsResidentBlocks(t *testing.T) {
	c := atomCache(4, Config{ReadAhead: abs})
	o := c.Open("obj")
	defer o.Close()

	o.Insert(0, fill(0, 3*AtomSize), false) // atom 3 invalid; block 1 absent
	gen := o.StreamGen()
	patch := bytes.Repeat([]byte{0xAB}, 2*AtomSize+100)
	o.Refresh(AtomSize+50, patch) // atom 1 in part, 2 whole, 3 in part, into block 1
	want := fill(0, 3*AtomSize)
	copy(want[AtomSize+50:], patch)
	dst := make([]byte, abs)
	if n := o.ReadCached(dst, 0); n != 3*AtomSize || !bytes.Equal(dst[:n], want) {
		t.Fatalf("after refresh served %d bytes, want %d holding the patch", n, 3*AtomSize)
	}
	// A refresh validates an atom that was not, when it covers it whole.
	o.Refresh(3*AtomSize, fill(3*AtomSize, AtomSize))
	if !o.Contains(0, abs) {
		t.Fatal("whole-atom refresh did not validate its atom")
	}
	if s := c.Stats(); s.Bytes != abs || s.Misses != 1 || o.StreamGen() != gen {
		t.Fatalf("refresh created a block, counted a miss or reset the stream: resident=%d misses=%d", s.Bytes, s.Misses)
	}
}
