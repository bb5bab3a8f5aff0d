// Package cache is the client-side block cache: a bounded, scan-resistant
// store of recently read — and, with write-behind, recently written —
// object bytes, shared by every open file of one client.
//
// The cache sits between core.File and the stripe layer. It is a passive
// policy engine: it never performs I/O itself. The file layer asks it to
// serve reads (ReadCached), tells it what a fetch brought back (Insert),
// absorbs writes into it (Write), and drains dirty extents out of it
// (NextFlush/FlushDone) in offset order. Keeping the I/O in core keeps
// the retry, failover, hedging and deadline machinery in one place and
// makes the cache trivially testable.
//
// Eviction is segmented LRU (a 2Q variant): blocks enter a probation
// FIFO and are promoted to the protected segment only on a re-reference
// after the insert-time access. A one-pass streaming scan therefore
// touches each block once, dies in probation, and never displaces the
// re-referenced hot set.
//
// Dirty blocks are pinned: they are excluded from both eviction lists
// until the file layer flushes them. Dirty bytes count against the
// write-behind budget, and WaitWriteBudget lets writers park until the
// background flusher drains below it.
package cache

import (
	"sync"
	"sync/atomic"

	"swift/internal/obs"
)

// AtomSize is the granule of cache validity: a resident block tracks
// which of its AtomSize-byte atoms hold the object's image, so a small
// random read fetches the atoms it asked for instead of a whole block.
// It equals the at-rest checksum block (integrity.DefaultBlockSize), the
// smallest unit an enveloped agent store reads anyway.
const AtomSize = 4096

// Config sizes one client's cache.
type Config struct {
	// Capacity bounds resident bytes, clean plus dirty (floored at one
	// block).
	Capacity int64
	// BlockSize is the residency and eviction granularity (default
	// 64 KiB): a multiple of AtomSize, at most 64 atoms. Capacity is
	// accounted per block however few of its atoms are valid — a sparse
	// block costs a full slot, the price of pooled fixed-size buffers.
	BlockSize int64
	// ReadAhead is the per-stream prefetch window in bytes (0 disables
	// prefetch suggestions; the stream detector still runs, because a
	// demand fetch widens to whole blocks only for a sequential stream).
	ReadAhead int64
	// Streams caps concurrently prefetching sequential streams
	// (default 2). The limit is enforced by the caller's prefetch
	// workers; the cache only sizes its suggestion bookkeeping with it.
	Streams int
	// WriteBehindMax is the dirty-byte budget. 0 means write-through:
	// the file layer must not absorb dirty data at all.
	WriteBehindMax int64
}

func (c *Config) fill() {
	if c.BlockSize <= 0 {
		c.BlockSize = 64 * 1024
	}
	if c.BlockSize%AtomSize != 0 || c.BlockSize > 64*AtomSize {
		panic("cache: BlockSize must be a multiple of AtomSize, at most 64 atoms")
	}
	if c.Capacity < c.BlockSize {
		c.Capacity = c.BlockSize
	}
	if c.Streams <= 0 {
		c.Streams = 2
	}
	// Leave at least one block of clean headroom so demand fetches can
	// always land even when write-behind is saturated.
	if c.WriteBehindMax > c.Capacity-c.BlockSize {
		c.WriteBehindMax = c.Capacity - c.BlockSize
	}
}

// Cache is one client's block cache. All structural state — the object
// table, the block tables, both LRU lists, and the byte accounting — is
// protected by mu; the counters are atomics so exports never take the
// lock.
type Cache struct {
	cfg Config

	mu        sync.Mutex
	objs      map[string]*Object // guarded by mu
	probation lruList            // guarded by mu
	protected lruList            // guarded by mu
	probBytes int64              // guarded by mu
	protBytes int64              // guarded by mu
	dirty     int64              // guarded by mu
	waiters   []chan struct{}    // guarded by mu

	// pool recycles block buffers so a steady-state cache allocates
	// nothing: every buffer a block ever holds comes from acquireBuf and
	// goes back through releaseBuf.
	pool sync.Pool

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	fillBytes     atomic.Int64
	readBytes     atomic.Int64
	raIssued      atomic.Int64
	raUsed        atomic.Int64
	raWasted      atomic.Int64
	flushes       atomic.Int64
	flushErrors   atomic.Int64
	stalls        atomic.Int64
	invalidations atomic.Int64
}

// Stats is a point-in-time snapshot of the cache counters and gauges.
type Stats struct {
	Capacity int64 // configured byte capacity
	Bytes    int64 // resident bytes, clean + dirty
	Dirty    int64 // resident dirty (unflushed) bytes

	Hits      int64 // block touches served from cache
	Misses    int64 // demand fills, one per block touched
	Evictions int64 // blocks evicted to make room
	FillBytes int64 // bytes fetched into the cache, demand + read-ahead
	ReadBytes int64 // bytes readers were served through the cache, hit or miss

	ReadAheadIssued int64 // blocks inserted by prefetch
	ReadAheadUsed   int64 // prefetched blocks later served
	ReadAheadWasted int64 // prefetched blocks dropped unserved

	Flushes     int64 // dirty extents written back
	FlushErrors int64 // write-backs that failed (error re-surfaced)
	Stalls      int64 // writers parked on the write-behind budget

	Invalidations int64 // objects dropped by coherence invalidation
}

// HitRate is hits over hits+misses, 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// FillPerReadByte is the fill amplification: bytes fetched into the cache
// per byte readers were served, 0 when idle. Below 1 the cache is saving
// traffic; a whole-block fill under small random reads drove it far
// above.
func (s Stats) FillPerReadByte() float64 {
	if s.ReadBytes == 0 {
		return 0
	}
	return float64(s.FillBytes) / float64(s.ReadBytes)
}

// New builds a cache and, when reg is non-nil, registers its metrics.
func New(cfg Config, reg *obs.Registry) *Cache {
	cfg.fill()
	c := &Cache{cfg: cfg, objs: make(map[string]*Object)}
	c.probation.init()
	c.protected.init()
	c.pool.New = func() any {
		return make([]byte, cfg.BlockSize)
	}
	if reg != nil {
		c.register(reg)
	}
	return c
}

// BlockSize reports the caching granularity.
func (c *Cache) BlockSize() int64 { return c.cfg.BlockSize }

// ReadAhead reports the per-stream prefetch window.
func (c *Cache) ReadAhead() int64 { return c.cfg.ReadAhead }

// Streams reports the concurrent-prefetch-stream cap.
func (c *Cache) Streams() int { return c.cfg.Streams }

// WriteBehind reports whether dirty absorption is enabled at all.
func (c *Cache) WriteBehind() bool { return c.cfg.WriteBehindMax > 0 }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes := c.probBytes + c.protBytes + c.dirty
	dirty := c.dirty
	c.mu.Unlock()
	return Stats{
		Capacity:        c.cfg.Capacity,
		Bytes:           bytes,
		Dirty:           dirty,
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		FillBytes:       c.fillBytes.Load(),
		ReadBytes:       c.readBytes.Load(),
		ReadAheadIssued: c.raIssued.Load(),
		ReadAheadUsed:   c.raUsed.Load(),
		ReadAheadWasted: c.raWasted.Load(),
		Flushes:         c.flushes.Load(),
		FlushErrors:     c.flushErrors.Load(),
		Stalls:          c.stalls.Load(),
		Invalidations:   c.invalidations.Load(),
	}
}

// register hooks the counters into a metric registry. The cache package
// owns the swift_cache_* namespace.
func (c *Cache) register(reg *obs.Registry) {
	gauges := []struct {
		name, help string
		load       func() float64
	}{
		{"swift_cache_bytes", "Resident cached bytes, clean plus dirty.",
			func() float64 { return float64(c.Stats().Bytes) }},
		{"swift_cache_dirty_bytes", "Resident dirty (write-behind) bytes awaiting flush.",
			func() float64 { return float64(c.Stats().Dirty) }},
		{"swift_cache_capacity_bytes", "Configured cache capacity.",
			func() float64 { return float64(c.cfg.Capacity) }},
	}
	counters := []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"swift_cache_hits_total", "Block touches served from cache.", &c.hits},
		{"swift_cache_misses_total", "Demand fills from agents, one per block touched.", &c.misses},
		{"swift_cache_evictions_total", "Blocks evicted to make room.", &c.evictions},
		{"swift_cache_fill_bytes_total", "Bytes fetched from agents into the cache, demand plus read-ahead.", &c.fillBytes},
		{"swift_cache_read_bytes_total", "Bytes served to readers through the cache, hit or miss.", &c.readBytes},
		{"swift_cache_readahead_issued_total", "Blocks inserted by asynchronous read-ahead.", &c.raIssued},
		{"swift_cache_readahead_used_total", "Prefetched blocks later served to a reader.", &c.raUsed},
		{"swift_cache_readahead_wasted_total", "Prefetched blocks dropped before any reader touched them.", &c.raWasted},
		{"swift_cache_writebehind_flushes_total", "Dirty extents written back to agents.", &c.flushes},
		{"swift_cache_writebehind_errors_total", "Write-backs that failed; the error re-surfaces on the next write or sync.", &c.flushErrors},
		{"swift_cache_writebehind_stalls_total", "Writers parked on the write-behind dirty budget.", &c.stalls},
		{"swift_cache_invalidations_total", "Objects dropped by a coherence invalidation.", &c.invalidations},
	}
	for _, g := range gauges {
		//lint:allow metricname names and help strings are literals in the table above; the loop only threads the closure
		reg.GaugeFunc(g.name, g.help, nil, g.load)
	}
	for _, ct := range counters {
		v := ct.v
		//lint:allow metricname names and help strings are literals in the table above; the loop only threads the closure
		reg.CounterFunc(ct.name, ct.help, nil, func() float64 { return float64(v.Load()) })
	}
}

// acquireBuf hands out a block-size buffer from the pool.
//
//swift:pool acquire
func (c *Cache) acquireBuf() []byte {
	return c.pool.Get().([]byte)
}

// releaseBuf returns a block buffer to the pool.
//
//swift:pool release
func (c *Cache) releaseBuf(b []byte) {
	c.pool.Put(b[:cap(b)])
}

// Open returns the (refcounted) cache view of one object. Every Open
// must be paired with Object.Close.
func (c *Cache) Open(name string) *Object {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.objs[name]
	if o == nil {
		o = &Object{c: c, name: name, blocks: make(map[int64]*block)}
		c.objs[name] = o
	}
	o.refs++
	return o
}

// Objects lists the names of every object with live references — the set
// a coherence sync declares to the mediator. seen receives each name with
// the generation last adopted from an invalidation.
func (c *Cache) Objects(seen func(name string, gen uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, o := range c.objs {
		seen(name, o.seenGen)
	}
}

// DirtyBytes reports total unflushed bytes across all objects.
func (c *Cache) DirtyBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirty
}

// OverBudget reports whether dirty bytes exceed the write-behind budget.
func (c *Cache) OverBudget() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.WriteBehindMax > 0 && c.dirty > c.cfg.WriteBehindMax
}

// BudgetWait returns a channel that is closed once dirty bytes drop to
// the write-behind budget or below. When already under budget it returns
// nil. The caller parks on the channel (counted as a stall) while a
// background flusher drains.
func (c *Cache) BudgetWait() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.WriteBehindMax <= 0 || c.dirty <= c.cfg.WriteBehindMax {
		return nil
	}
	ch := make(chan struct{})
	c.waiters = append(c.waiters, ch)
	c.stalls.Add(1)
	return ch
}

// wakeWaitersLocked releases budget waiters once dirty drops to the
// budget; c.mu held.
func (c *Cache) wakeWaitersLocked() {
	if c.dirty > c.cfg.WriteBehindMax || len(c.waiters) == 0 {
		return
	}
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
}

// ensureRoomLocked evicts clean blocks until n more bytes fit under
// Capacity; c.mu held. Dirty blocks are pinned and never evicted, so a
// saturated write-behind can at worst squeeze the clean segments to
// zero.
func (c *Cache) ensureRoomLocked(n int64) {
	for c.probBytes+c.protBytes+c.dirty+n > c.cfg.Capacity {
		b := c.probation.tail()
		if b == nil {
			b = c.protected.tail()
		}
		if b == nil {
			return // everything resident is dirty; nothing evictable
		}
		c.dropLocked(b, true)
	}
}

// dropLocked removes one clean block from its object and list and
// recycles its buffer; c.mu held.
func (c *Cache) dropLocked(b *block, evicted bool) {
	if b.list != nil {
		b.list.remove(b)
		if b.list == &c.probation {
			c.probBytes -= c.cfg.BlockSize
		} else {
			c.protBytes -= c.cfg.BlockSize
		}
		b.list = nil
	}
	delete(b.obj.blocks, b.idx)
	b.obj.bytes -= c.cfg.BlockSize
	if evicted {
		c.evictions.Add(1)
	}
	if b.prefetched {
		c.raWasted.Add(1)
	}
	c.releaseBuf(b.buf)
	b.buf = nil
}

// touchLocked is the segmented-LRU reference rule; c.mu held. The first
// touch after insert only marks the block served; a later touch promotes
// it to the protected segment (or refreshes its protected position).
// Prefetched blocks count their first touch as a read-ahead hit.
func (c *Cache) touchLocked(b *block) {
	if b.prefetched {
		b.prefetched = false
		c.raUsed.Add(1)
	}
	if !b.served {
		b.served = true
		return
	}
	if b.list == &c.protected {
		c.protected.moveFront(b)
		return
	}
	if b.list == nil {
		return // dirty (pinned): position is restored on flush
	}
	// Second reference in probation: promote, demoting the protected
	// tail when the protected segment overflows its 3/4 share.
	c.probation.remove(b)
	c.probBytes -= c.cfg.BlockSize
	c.protected.pushFront(b)
	b.list = &c.protected
	c.protBytes += c.cfg.BlockSize
	for c.protBytes > c.cfg.Capacity*3/4 {
		t := c.protected.tail()
		if t == nil || t == b {
			break
		}
		c.protected.remove(t)
		c.protBytes -= c.cfg.BlockSize
		c.probation.pushFront(t)
		t.list = &c.probation
		c.probBytes += c.cfg.BlockSize
	}
}
