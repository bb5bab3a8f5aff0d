package cache

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// The cache-object model check: an op sequence decoded from a byte string
// drives one Object the way core.File does, against a flat oracle of
// what the agents hold and what the newest bytes are. The cache is
// correct when it never shows a reader anything but the newest bytes,
// never hands the flusher a byte that is not the newest or not in a valid
// atom, stays inside its capacity, and accounts every dirty byte back to
// zero.

const (
	mBlocks = 12 // the object spans at most this many abs-sized blocks
	mCap    = 8  // cache capacity in blocks
	mBudget = 2  // write-behind budget in blocks
	mMaxOp  = 2 * abs
)

type cacheModel struct {
	t        *testing.T
	c        *Cache
	o, other *Object

	agent  []byte // what a fetch returns; zeros where nothing was ever flushed
	newest []byte // what a read must return
	size   int64  // the file layer's logical size (unflushed growth included)
	stamp  byte   // varies write payloads
	gen    uint64
	pushed int64 // blocks inserted into other so far
}

func newCacheModel(t *testing.T) *cacheModel {
	m := &cacheModel{
		t:      t,
		c:      atomCache(mCap, Config{WriteBehindMax: mBudget * abs, ReadAhead: abs}),
		agent:  make([]byte, mBlocks*abs),
		newest: make([]byte, mBlocks*abs),
		// Neither block- nor atom-aligned: the tail atom is exercised.
		size: 6*abs + AtomSize + 123,
	}
	m.o, m.other = m.c.Open("obj"), m.c.Open("other")
	copy(m.agent, fill(0, int(m.size)))
	copy(m.newest, m.agent)
	return m
}

func (m *cacheModel) payload(off int64, n int) []byte {
	m.stamp++
	p := fill(off, n)
	for i := range p {
		p[i] ^= m.stamp
	}
	return p
}

// read mirrors File.readServe; widen mimics the sequential-stream fetch
// that covers valid atoms too.
func (m *cacheModel) read(off, n int64, widen bool) {
	dst := make([]byte, n)
	for filled := int64(0); filled < n; {
		pos := off + filled
		if k := m.o.ReadCached(dst[filled:], pos); k > 0 {
			filled += int64(k)
			continue
		}
		lo, run, hi := m.o.Missing(pos, n-filled)
		if lo%AtomSize != 0 || run%AtomSize != 0 || hi%AtomSize != 0 || lo > pos || run <= pos || run > hi {
			m.t.Fatalf("Missing(%d,%d) = (%d,%d,%d)", pos, n-filled, lo, run, hi)
		}
		if widen {
			hi = (pos+n-filled+abs-1)/abs*abs + abs
		}
		hi = min(hi, m.size)
		buf := bytes.Clone(m.agent[lo:hi])
		m.o.Insert(lo, buf, false)
		filled += int64(copy(dst[filled:min(n, run-off)], buf[pos-lo:]))
	}
	if !bytes.Equal(dst, m.newest[off:off+n]) {
		m.t.Fatalf("read [%d,%d) returned bytes that are not the newest", off, off+n)
	}
}

// write mirrors File.absorbWrite: per block, back then absorb; then drain
// to the dirty budget.
func (m *cacheModel) write(off int64, p []byte) {
	copy(m.newest[off:], p)
	for len(p) > 0 {
		n := min(int64(len(p)), abs-off%abs)
		for tries := 0; ; tries++ {
			bo, blen, ok := m.o.MissingBacking(off, n, m.size)
			if !ok {
				break
			}
			if tries > abs/AtomSize {
				m.t.Fatalf("MissingBacking(%d,%d) still wants (%d,%d) after %d fetches", off, n, bo, blen, tries)
			}
			m.o.Insert(bo, bytes.Clone(m.agent[bo:bo+blen]), false)
		}
		m.o.Write(off, p[:n])
		m.size = max(m.size, off+n)
		off, p = off+n, p[n:]
	}
	for m.c.OverBudget() {
		m.flush(false)
	}
}

// flush writes back one dirty extent; a failing flush still lands a
// prefix on the agents, as a burst that died part-way does.
func (m *cacheModel) flush(fail bool) bool {
	off, p, ok := m.o.NextFlush()
	if !ok {
		return false
	}
	if !bytes.Equal(p, m.newest[off:off+int64(len(p))]) {
		m.t.Fatalf("flush of [%d,%d) hands out bytes that are not the newest", off, off+int64(len(p)))
	}
	if !m.o.Contains(off, int64(len(p))) {
		m.t.Fatalf("flush of [%d,%d) reaches into an invalid atom", off, off+int64(len(p)))
	}
	if fail {
		copy(m.agent[off:], p[:len(p)/2])
		m.o.FlushFail(errors.New("agent lost"))
		return true
	}
	copy(m.agent[off:], p)
	m.o.FlushDone(off)
	return true
}

func (m *cacheModel) drain() {
	for m.flush(false) {
	}
	m.o.TakeFlushErr()
	if d := m.o.DirtyBytes(); d != 0 {
		m.t.Fatalf("object dirty bytes = %d after a full drain", d)
	}
}

// writeThrough mirrors the write-through branch of File.writeAtLocked,
// which never runs beside dirty blocks. A failed one has landed a prefix
// on the agents and invalidates.
func (m *cacheModel) writeThrough(off int64, p []byte, fail bool) {
	m.drain()
	if fail {
		p = p[:len(p)/2]
	}
	copy(m.agent[off:], p)
	copy(m.newest[off:], p)
	m.size = max(m.size, off+int64(len(p)))
	if fail {
		m.o.Invalidate(off, int64(2*len(p)+1))
	} else {
		m.o.Refresh(off, p)
	}
}

func (m *cacheModel) step(kind byte, a, b int64) {
	span := func() (off, n int64) { // a read inside the object
		off = a % m.size
		return off, min(1+b%mMaxOp, m.size-off)
	}
	wspan := func() (off, n int64) { // a write that may grow it, gap included
		n = 1 + b%mMaxOp
		return a % min(m.size+abs, mBlocks*abs-n), n
	}
	switch kind % 12 {
	case 0, 1:
		off, n := span()
		m.read(off, n, kind%12 == 1)
	case 2: // an atom-aligned partial fetch, demand or read-ahead
		lo := a % m.size / AtomSize * AtomSize
		hi := min(lo+(1+b%6)*AtomSize, m.size)
		m.o.Insert(lo, bytes.Clone(m.agent[lo:hi]), b&64 != 0)
	case 3, 4, 5:
		off, n := wspan()
		m.write(off, m.payload(off, int(n)))
	case 6:
		m.flush(false)
	case 7:
		m.flush(true)
	case 8, 9:
		off, n := wspan()
		m.writeThrough(off, m.payload(off, int(n)), kind%12 == 9)
	case 10: // pressure from another object: whole-block fills
		for i := int64(0); i <= b%4; i++ {
			m.other.Insert(m.pushed*abs, fill(m.pushed*abs, abs), false)
			m.pushed++
		}
	case 11: // another client wrote: flush ours, then drop everything
		m.drain()
		off, n := span()
		copy(m.agent[off:], m.payload(off, int(n)))
		copy(m.newest[off:], m.agent[off:off+n])
		m.gen++
		m.o.InvalidateAll(m.gen)
	}
	if s := m.c.Stats(); s.Bytes > s.Capacity {
		m.t.Fatalf("resident %d bytes over capacity %d after op %d", s.Bytes, s.Capacity, kind%12)
	}
}

// opLen is the encoding of one op: kind, a 24-bit offset argument (the
// object is larger than 64 KiB), a 16-bit length argument.
const opLen = 6

// runCacheModel decodes the ops and closes with a full drain and a
// whole-object read.
func runCacheModel(t *testing.T, ops []byte) {
	m := newCacheModel(t)
	for ; len(ops) >= opLen; ops = ops[opLen:] {
		m.step(ops[0], int64(ops[1])<<16|int64(ops[2])<<8|int64(ops[3]), int64(ops[4])<<8|int64(ops[5]))
	}
	m.drain()
	if d := m.c.DirtyBytes(); d != 0 {
		t.Fatalf("cache dirty bytes = %d after a full drain", d)
	}
	if !bytes.Equal(m.agent[:m.size], m.newest[:m.size]) {
		t.Fatal("agents do not hold the newest bytes after a full drain")
	}
	m.read(0, m.size, false)
	m.o.Close()
	m.other.Close()
}

func modelOps(seed int64, n int) []byte {
	ops := make([]byte, opLen*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestCacheObjectModel is the tier-1 run of the model: a fixed set of
// seeds, a deterministic function of them.
func TestCacheObjectModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runCacheModel(t, modelOps(seed, 200))
	}
}

func FuzzCacheObjectModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(modelOps(seed, 64))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > opLen*512 {
			ops = ops[:opLen*512]
		}
		runCacheModel(t, ops)
	})
}
