package ec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Shard order convention: a stripe row is a slice of m+k shards, data
// first (indices 0..m-1) then parity (indices m..m+k-1). In the
// reconstruct calls a nil shard marks a missing unit; everywhere else all
// shards must be present. Shards may be shorter than the row's striping
// unit — short shards are treated as zero-padded, matching the engine's
// convention that tail data units end at the file while parity units
// always span the full unit.

var (
	// ErrShardCount reports a shards slice whose length is not m+k.
	ErrShardCount = errors.New("ec: wrong number of shards")
	// ErrTooFewShards reports a Reconstruct call with fewer than m
	// present shards: the row is beyond the code's correction power.
	ErrTooFewShards = errors.New("ec: too few shards to reconstruct")
)

// Codec encodes and reconstructs stripe rows for one (m data, k parity)
// scheme. Implementations are safe for concurrent use.
type Codec interface {
	// DataShards returns m, the number of data units per row.
	DataShards() int
	// ParityShards returns k, the number of parity units per row.
	ParityShards() int
	// Encode fills the k parity shards from the m data shards. All
	// m+k shards must be non-nil; parity shards define the row width.
	Encode(shards [][]byte) error
	// ReconstructInto rebuilds the shards out asks for — out[i] non-nil
	// means shard i is wanted and is written over its whole length —
	// from the present (non-nil) entries of shards, at least m of them.
	// Both slices have m+k entries. Nothing else is rebuilt and nothing
	// is allocated once the failure set's decode matrix is cached. The
	// code is byte-wise, so the shards may be any same byte range of
	// their units.
	ReconstructInto(shards, out [][]byte) error
	// Reconstruct rebuilds every nil shard in place, each allocated to
	// the widest present shard's length.
	Reconstruct(shards [][]byte) error
	// Verify reports whether the parity shards match the data shards.
	Verify(shards [][]byte) (bool, error)
	// Stats returns a snapshot of the codec's work counters.
	Stats() Stats
	// String returns the scheme as "m+k", e.g. "8+2".
	String() string
}

// Stats is a value snapshot of one codec's counters. All fields are
// monotonic since codec construction.
type Stats struct {
	EncodeCalls      int64
	EncodeBytes      int64 // data bytes consumed by Encode
	ReconstructCalls int64
	ReconstructBytes int64 // bytes of shards rebuilt
	InvCacheHits     int64 // decode matrices served from cache
	InvCacheMisses   int64 // decode matrices computed
	// ByMissing[n] counts reconstruct calls that rebuilt exactly n
	// shards (index 0 unused; length k+1).
	ByMissing []int64
}

// Sub returns the counter deltas s - prev (ByMissing is differenced
// element-wise over the shorter of the two).
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		EncodeCalls:      s.EncodeCalls - prev.EncodeCalls,
		EncodeBytes:      s.EncodeBytes - prev.EncodeBytes,
		ReconstructCalls: s.ReconstructCalls - prev.ReconstructCalls,
		ReconstructBytes: s.ReconstructBytes - prev.ReconstructBytes,
		InvCacheHits:     s.InvCacheHits - prev.InvCacheHits,
		InvCacheMisses:   s.InvCacheMisses - prev.InvCacheMisses,
		ByMissing:        append([]int64(nil), s.ByMissing...),
	}
	for i := range d.ByMissing {
		if i < len(prev.ByMissing) {
			d.ByMissing[i] -= prev.ByMissing[i]
		}
	}
	return d
}

// counters is the shared atomic instrument block.
type counters struct {
	encodeCalls      atomic.Int64
	encodeBytes      atomic.Int64
	reconstructCalls atomic.Int64
	reconstructBytes atomic.Int64
	invCacheHits     atomic.Int64
	invCacheMisses   atomic.Int64
	byMissing        []atomic.Int64 // length k+1
}

func newCounters(k int) *counters {
	return &counters{byMissing: make([]atomic.Int64, k+1)}
}

func (c *counters) snapshot() Stats {
	s := Stats{
		EncodeCalls:      c.encodeCalls.Load(),
		EncodeBytes:      c.encodeBytes.Load(),
		ReconstructCalls: c.reconstructCalls.Load(),
		ReconstructBytes: c.reconstructBytes.Load(),
		InvCacheHits:     c.invCacheHits.Load(),
		InvCacheMisses:   c.invCacheMisses.Load(),
		ByMissing:        make([]int64, len(c.byMissing)),
	}
	for i := range c.byMissing {
		s.ByMissing[i] = c.byMissing[i].Load()
	}
	return s
}

// New returns a Codec for m data and k parity shards. The first parity
// row of the code is all ones, so the k=1 codec is the XOR computed copy
// (TestXORCompat pins the bytes).
func New(m, k int) (Codec, error) {
	if err := validate(m, k); err != nil {
		return nil, err
	}
	return &rsCodec{
		m:   m,
		k:   k,
		a:   codingMatrix(m, k),
		ctr: newCounters(k),
		dec: make(map[shardSet]matrix),
	}, nil
}

func validate(m, k int) error {
	if m < 1 || k < 1 {
		return fmt.Errorf("ec: need at least 1 data and 1 parity shard (have m=%d k=%d)", m, k)
	}
	if m+k > 256 {
		return fmt.Errorf("ec: m+k must be <= 256 over GF(2^8) (have %d)", m+k)
	}
	return nil
}

// checkShards validates the shard count and, when requireAll is set,
// that every shard is non-nil.
func checkShards(shards [][]byte, total int, requireAll bool) error {
	if len(shards) != total {
		return fmt.Errorf("%w: have %d want %d", ErrShardCount, len(shards), total) //lint:allow hotalloc shard-shape validation failure is a caller bug, cold
	}
	if requireAll {
		for i, s := range shards {
			if s == nil {
				return fmt.Errorf("ec: shard %d is nil", i) //lint:allow hotalloc shard-shape validation failure is a caller bug, cold
			}
		}
	}
	return nil
}

// rowWidth returns the widest present shard's length.
func rowWidth(shards [][]byte) int {
	w := 0
	for _, s := range shards {
		if len(s) > w {
			w = len(s)
		}
	}
	return w
}

// shardSet is a set of shard indices; m+k <= 256 fits four words.
type shardSet [4]uint64

func (s *shardSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s *shardSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

type rsCodec struct {
	m, k int
	a    matrix // k×m parity sub-matrix of the systematic generator
	ctr  *counters

	mu  sync.RWMutex
	dec map[shardSet]matrix // input shards → decode matrix; guarded by mu
}

func (c *rsCodec) DataShards() int   { return c.m }
func (c *rsCodec) ParityShards() int { return c.k }
func (c *rsCodec) String() string    { return fmt.Sprintf("%d+%d", c.m, c.k) }
func (c *rsCodec) Stats() Stats      { return c.ctr.snapshot() }

// combine sets out = Σ coeff[i]·shards[i], one input per pass, with
// short shards read as zero-padded.
//
//swift:hotpath
func combine(coeff []byte, shards [][]byte, out []byte) {
	first := true
	for i, c := range coeff {
		if c == 0 {
			continue
		}
		if first {
			first = false
			mulSlice(c, shards[i], out)
			clearSlice(out[min(len(shards[i]), len(out)):])
			continue
		}
		mulAddSlice(c, shards[i], out)
	}
	if first {
		clearSlice(out)
	}
}

// Encode fills the k parity shards from the m data shards in place:
// the per-row write-path kernel.
//
//swift:hotpath
func (c *rsCodec) Encode(shards [][]byte) error {
	if err := checkShards(shards, c.m+c.k, true); err != nil {
		return err
	}
	var nbytes int64
	for _, d := range shards[:c.m] {
		nbytes += int64(len(d))
	}
	for p := 0; p < c.k; p++ {
		combine(c.a.row(p), shards, shards[c.m+p])
	}
	c.ctr.encodeCalls.Add(1)
	c.ctr.encodeBytes.Add(nbytes)
	return nil
}

func (c *rsCodec) Verify(shards [][]byte) (bool, error) {
	if err := checkShards(shards, c.m+c.k, true); err != nil {
		return false, err
	}
	want := make([]byte, rowWidth(shards))
	for p := 0; p < c.k; p++ {
		combine(c.a.row(p), shards, want)
		have := shards[c.m+p]
		for i := range want {
			var hv byte
			if i < len(have) {
				hv = have[i]
			}
			if want[i] != hv {
				return false, nil
			}
		}
	}
	return true, nil
}

func (c *rsCodec) Reconstruct(shards [][]byte) error {
	out := make([][]byte, len(shards))
	width := rowWidth(shards)
	for i, s := range shards {
		if s == nil {
			out[i] = make([]byte, width)
		}
	}
	if err := c.ReconstructInto(shards, out); err != nil {
		return err
	}
	for i, o := range out {
		if o != nil {
			shards[i] = o
		}
	}
	return nil
}

func (c *rsCodec) ReconstructInto(shards, out [][]byte) error {
	total := c.m + c.k
	if err := checkShards(shards, total, false); err != nil {
		return err
	}
	if err := checkShards(out, total, false); err != nil {
		return err
	}
	wanted := 0
	for _, o := range out {
		if o != nil {
			wanted++
		}
	}
	if wanted == 0 {
		return nil
	}
	// The first m present shards are the decode inputs.
	var inputs shardSet
	present := 0
	for i := 0; i < total && present < c.m; i++ {
		if shards[i] != nil {
			inputs.add(i)
			present++
		}
	}
	if present < c.m {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewShards, present, c.m)
	}
	c.rebuild(c.decodeMatrix(inputs), shards, out)
	c.ctr.byMissing[min(wanted, c.k)].Add(1)
	return nil
}

// rebuild writes every wanted shard as its row of dec over the inputs:
// the per-row degraded-read kernel.
//
//swift:hotpath
func (c *rsCodec) rebuild(dec matrix, shards, out [][]byte) {
	var rebuilt int64
	for i, o := range out {
		if o != nil {
			combine(dec.row(i), shards, o)
			rebuilt += int64(len(o))
		}
	}
	c.ctr.reconstructCalls.Add(1)
	c.ctr.reconstructBytes.Add(rebuilt)
}

// decodeMatrix returns the (m+k)×(m+k) matrix whose row i expresses
// shard i — data or parity — over the m input shards (columns of other
// shards are zero). It is the generator [I; A] times the inverse of the
// generator rows of the inputs, cached by input set: repeated degraded
// reads against the same failure set hit the cache.
func (c *rsCodec) decodeMatrix(inputs shardSet) matrix {
	c.mu.RLock()
	dec, ok := c.dec[inputs]
	c.mu.RUnlock()
	if ok {
		c.ctr.invCacheHits.Add(1)
		return dec
	}
	c.ctr.invCacheMisses.Add(1)

	// The normalized Cauchy construction guarantees invertibility for
	// any choice of m distinct generator rows.
	total := c.m + c.k
	sub := newMatrix(c.m, c.m)
	cols := make([]int, 0, c.m)
	for i := 0; i < total; i++ {
		if !inputs.has(i) {
			continue
		}
		if i < c.m {
			sub.set(len(cols), i, 1)
		} else {
			copy(sub.row(len(cols)), c.a.row(i-c.m))
		}
		cols = append(cols, i)
	}
	inv, err := sub.invert()
	if err != nil {
		// Unreachable for a correctly constructed code; fail loudly.
		panic(fmt.Sprintf("ec: generator submatrix singular for inputs %v: %v", cols, err))
	}
	par := c.a.mul(inv)
	dec = newMatrix(total, total)
	for t, col := range cols {
		for i := 0; i < c.m; i++ {
			dec.set(i, col, inv.at(i, t))
		}
		for p := 0; p < c.k; p++ {
			dec.set(c.m+p, col, par.at(p, t))
		}
	}

	c.mu.Lock()
	c.dec[inputs] = dec
	c.mu.Unlock()
	return dec
}
