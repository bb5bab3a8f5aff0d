package core

import (
	"errors"
	"time"

	"swift/internal/cache"
	"swift/internal/mediator"
	"swift/internal/obs"
)

// This file wires the client-side block cache (internal/cache) into the
// engine: sizing and construction, the background read-ahead workers,
// the write-behind flusher, and the mediator cache-coherence rounds.
// The cache itself is a passive policy engine; every byte that moves
// between it and the agents moves through File.readRange/writeRange, so
// the retry, failover, hedging and deadline machinery stays in one place.

// flushTick paces the background flusher between kicks, so dirty bytes
// never linger just because writers went quiet.
const flushTick = 100 * time.Millisecond

// readAheadStreams caps concurrently prefetching streams, one worker each.
const readAheadStreams = 2

// prefetchReq is one suggested read-ahead window for a file's stream.
type prefetchReq struct {
	f   *File
	off int64
	n   int64
	gen uint64 // stream generation; a seek invalidates the request
}

// initCache builds the block cache and starts its background workers,
// according to the filled config. No-op when caching is off.
func (c *Client) initCache() {
	cfg := &c.cfg
	if cfg.CacheSync != nil {
		// Write declaration is independent of local caching: a client
		// that writes but never caches still owes the federation its
		// generation bumps, or every other client's cache goes stale.
		//lint:allow lockguard Dial-time construction; no other goroutine can hold a *Client yet
		c.written = make(map[string]struct{})
	}
	if !cfg.cacheEnabled() {
		return
	}
	capBytes := cfg.CacheSize
	if capBytes == 0 {
		// Auto-size: room for several read-ahead windows and double the
		// dirty budget, floored at 8 MiB.
		capBytes = 8 << 20
		if n := 4 * cfg.ReadAhead; n > capBytes {
			capBytes = n
		}
		if n := 2 * cfg.WriteBehindMax; n > capBytes {
			capBytes = n
		}
	}
	c.cache = cache.New(cache.Config{
		Capacity:       capBytes,
		ReadAhead:      cfg.ReadAhead,
		Streams:        readAheadStreams,
		WriteBehindMax: cfg.WriteBehindMax,
	}, c.tel.Registry())
	if cfg.ReadAhead > 0 {
		workers := c.cache.Streams()
		c.prefetchQ = make(chan prefetchReq, 4*workers)
		c.prefetchStop = make(chan struct{})
		for i := 0; i < workers; i++ {
			c.prefetchWG.Add(1)
			go c.prefetchLoop()
		}
	}
	if c.cache.WriteBehind() {
		c.flushKick = make(chan struct{}, 1)
		c.flushStop = make(chan struct{})
		c.flushDone = make(chan struct{})
		go c.flushLoop()
	}
}

// stopCacheWorkers shuts the prefetch and flush goroutines down, once.
// The flusher drains remaining dirty extents on its way out.
func (c *Client) stopCacheWorkers() {
	c.cacheOnce.Do(func() {
		if c.prefetchStop != nil {
			close(c.prefetchStop)
			c.prefetchWG.Wait()
		}
		if c.flushStop != nil {
			close(c.flushStop)
			<-c.flushDone
		}
	})
}

// CacheStats snapshots the block cache's counters (zeros when caching
// is off).
func (c *Client) CacheStats() cache.Stats {
	if c.cache == nil {
		return cache.Stats{}
	}
	return c.cache.Stats()
}

// suggestPrefetch hands a read-ahead window to the background workers.
// Non-blocking: a full queue drops the suggestion — the stream detector
// suggests the window again as the reader advances, and stalling a
// demand read to enqueue speculation would invert the priorities.
func (c *Client) suggestPrefetch(f *File, off, n int64, gen uint64) {
	select {
	case c.prefetchQ <- prefetchReq{f: f, off: off, n: n, gen: gen}:
	default:
	}
}

// prefetchLoop is one background read-ahead worker. The scratch buffer
// is worker-local and reused across requests, so steady-state prefetch
// allocates nothing.
func (c *Client) prefetchLoop() {
	defer c.prefetchWG.Done()
	var scratch []byte
	for {
		select {
		case <-c.prefetchStop:
			return
		case r := <-c.prefetchQ:
			scratch = r.f.prefetch(r, scratch)
		}
	}
}

// prefetch runs one read-ahead window on behalf of a background worker,
// reusing scratch across calls. Under f.mu it re-checks that the stream
// is still live (a seek bumps the generation) and the window not already
// resident, then reads WITHOUT failover retries or hedging: read-ahead
// is speculative and must never spend the retry budget demand reads and
// recovery depend on.
func (f *File) prefetch(r prefetchReq, scratch []byte) []byte {
	sp := f.c.startSpan(obs.SpanContext{}, "readahead")
	defer sp.Finish()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.cobj == nil || f.cobj.StreamGen() != r.gen {
		return scratch
	}
	off, n := r.off, r.n
	if off+n > f.size {
		n = f.size - off
	}
	if n <= 0 || f.cobj.Contains(off, n) {
		return scratch
	}
	if int64(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	buf := scratch[:n]
	sp.Annotate("%s [%d:%d)", f.name, off, off+n)
	f.prefetching = true
	err := f.readRange(buf, off, false, sp)
	f.prefetching = false
	if err != nil {
		sp.SetError(err)
		return scratch
	}
	f.cobj.Insert(off, buf, true)
	return scratch
}

// kickFlush nudges the background flusher. Non-blocking; a pending kick
// already covers this one.
func (c *Client) kickFlush() {
	if c.flushKick == nil {
		return
	}
	select {
	case c.flushKick <- struct{}{}:
	default:
	}
}

// flushLoop is the background write-behind flusher: it drains dirty
// extents in offset order on every kick and on a steady tick, and fully
// drains on shutdown so Close-time flushes find little left to do.
func (c *Client) flushLoop() {
	defer close(c.flushDone)
	t := time.NewTicker(flushTick)
	defer t.Stop()
	for {
		select {
		case <-c.flushStop:
			c.drainDirty()
			return
		case <-c.flushKick:
		case <-t.C:
		}
		c.drainDirty()
	}
}

// drainDirty flushes dirty extents across every open file until no file
// makes progress. A file whose flush fails parks the error on its cache
// object (re-surfaced on the next write or Sync) and reports no
// progress, so a dead object cannot spin the flusher.
func (c *Client) drainDirty() {
	for {
		progressed := false
		for _, f := range c.openFiles() {
			if f.flushSome() {
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// flushSome writes back one dirty extent of the file, reporting whether
// it made progress.
func (f *File) flushSome() bool {
	sp := f.c.startSpan(obs.SpanContext{}, "writeback")
	defer sp.Finish()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.cobj == nil {
		return false
	}
	return f.flushOneLocked(sp)
}

// flushOneLocked writes back the lowest-offset dirty extent; f.mu held.
// Success declares the write for the next coherence round; failure
// parks the error on the object and leaves the extent dirty for retry.
func (f *File) flushOneLocked(sp *obs.Span) bool {
	off, p, ok := f.cobj.NextFlush()
	if !ok {
		return false
	}
	if err := f.writeRange(p, off, true, sp); err != nil {
		sp.SetError(err)
		f.cobj.FlushFail(err)
		return false
	}
	f.cobj.FlushDone(off)
	f.c.noteWritten(f.name)
	return true
}

// absorbBlock lands the part p of a write-behind write at off that falls
// in one cache block; f.mu held. An atom the write covers only partially
// must first be backed by its on-disk bytes so the dirty span never
// holds unfetched bytes. The block is backed, then pinned dirty, before
// the next one is touched: backing both edge blocks of a write first
// lets the second fetch evict the first, and the loop never converges.
// When no block can be placed for the backing (the capacity is full of
// pinned dirty blocks), the block is written through instead.
func (f *File) absorbBlock(p []byte, off int64, sp *obs.Span) error {
	for {
		bo, blen, ok := f.cobj.MissingBacking(off, int64(len(p)), f.size)
		if !ok {
			break
		}
		buf := grow(&f.fetchBuf, blen)
		if err := f.readRange(buf, bo, true, sp); err != nil {
			return err
		}
		if !f.cobj.Insert(bo, buf, false) {
			return f.writeThrough(p, off, sp)
		}
	}
	f.cobj.Write(off, p)
	return nil
}

// flushOverBudget writes this file's dirty extents back inline, lowest
// first, while the cache is over its dirty budget; f.mu held. A failed
// write-back ends the loop with its error.
func (f *File) flushOverBudget(sp *obs.Span) error {
	for f.c.cache.OverBudget() && f.cobj.DirtyBytes() > 0 {
		if !f.flushOneLocked(sp) {
			return f.cobj.TakeFlushErr()
		}
	}
	return nil
}

// flushAllLocked drains every dirty extent of this file and returns any
// parked write-back error; f.mu held. The write-behind Sync barrier.
func (f *File) flushAllLocked(sp *obs.Span) error {
	if f.cobj == nil {
		return nil
	}
	for f.flushOneLocked(sp) {
	}
	return f.cobj.TakeFlushErr()
}

// waitWriteBudget parks the writer while dirty bytes exceed the
// write-behind budget — the back-pressure that keeps a fast writer from
// turning the cache into an unbounded queue. The park is bounded by the
// retry budget so a wedged flusher (every agent out) cannot hold
// writers forever; its error surfaces on the next write instead.
func (f *File) waitWriteBudget() {
	c := f.c
	if f.cobj == nil || c.cache == nil || !c.cache.WriteBehind() {
		return
	}
	ch := c.cache.BudgetWait()
	if ch == nil {
		return
	}
	c.kickFlush()
	select {
	case <-ch:
	case <-time.After(c.retryBudget()):
	}
}

// noteWritten records that this client moved the object's agent-side
// bytes (a write-through or a completed flush), for the next coherence
// round's declaration. No-op without a coherence hook.
func (c *Client) noteWritten(name string) {
	if c.cfg.CacheSync == nil {
		return
	}
	c.cohMu.Lock()
	c.written[name] = struct{}{}
	c.cohMu.Unlock()
}

// CoherenceSync runs one cache-coherence round against the mediator:
// declare what we cache and what we wrote, learn what went stale. The
// facade calls it on the heartbeat cadence. Rules:
//
//   - The written set is only cleared on a successful round; a failed
//     round redeclares it, so a generation bump is never lost.
//   - A stale object this client itself wrote adopts the new generation
//     without invalidating — the writer's cache absorbed those bytes on
//     the way out, and dropping them would collapse re-read hit rates.
//   - Any other stale object flushes its dirty extents (our unflushed
//     writes still beat the invalidation) and drops its blocks; the next
//     read re-fetches, and the file's size refreshes so a grown object
//     is not clamped at the stale length.
//   - ErrUnknownSession means the lease is gone, and with it any claim
//     to coherent caching: every open file flushes and drops its image.
func (c *Client) CoherenceSync() {
	if c.cfg.CacheSync == nil {
		return
	}
	c.cohMu.Lock()
	written := make([]string, 0, len(c.written))
	wrote := make(map[string]bool, len(c.written))
	for name := range c.written {
		written = append(written, name)
		wrote[name] = true
	}
	c.cohMu.Unlock()
	var cached []mediator.CachedObject
	if c.cache != nil {
		c.cache.Objects(func(name string, gen uint64) {
			cached = append(cached, mediator.CachedObject{Name: name, Gen: gen})
		})
	}
	if len(cached) == 0 && len(written) == 0 {
		return
	}
	stale, err := c.cfg.CacheSync(cached, written)
	if err != nil {
		if errors.Is(err, mediator.ErrUnknownSession) {
			c.dropLease()
		}
		return
	}
	c.cohMu.Lock()
	for _, name := range written {
		delete(c.written, name)
	}
	c.cohMu.Unlock()
	if c.cache == nil {
		return // nothing cached locally to adopt or invalidate
	}
	for _, co := range stale {
		if wrote[co.Name] {
			c.adoptGen(co.Name, co.Gen)
			continue
		}
		c.invalidateObject(co.Name, co.Gen)
	}
}

// adoptGen records that this client's cached image of the object
// reflects the given write generation (it minted it).
func (c *Client) adoptGen(name string, gen uint64) {
	o := c.cache.Open(name)
	o.AdoptGen(gen)
	o.Close()
}

// invalidateObject drops the cached image of an object another client
// wrote, then refreshes open files' sizes — a reader that kept the
// pre-write size would clamp reads short of the new bytes.
func (c *Client) invalidateObject(name string, gen uint64) {
	handled := false
	for _, f := range c.openFiles() {
		if f.name == name {
			f.invalidateCoherent(gen)
			handled = true
		}
	}
	if !handled {
		// No open file: leftover blocks (a closed file's parked dirty
		// data included) just drop — the other writer's bytes win.
		o := c.cache.Open(name)
		o.InvalidateAll(gen)
		o.Close()
		return
	}
	sz, err := c.Stat(name)
	if err != nil {
		return // next open or stat re-learns the size
	}
	for _, f := range c.openFiles() {
		if f.name != name {
			continue
		}
		f.mu.Lock()
		if !f.closed {
			f.size = sz
			if f.pos > sz {
				f.pos = sz
			}
		}
		f.mu.Unlock()
	}
}

// dropLease handles ErrUnknownSession from a coherence round: the lease
// is gone. Every open file flushes its dirty extents out (best effort)
// and drops its clean image, so nothing stale survives into whatever
// session comes next.
func (c *Client) dropLease() {
	for _, f := range c.openFiles() {
		f.invalidateCoherent(0)
	}
}

// invalidateCoherent drops the file's cached image after a coherence
// event: dirty extents flush first (this client's unflushed writes still
// beat the invalidation; silently losing them would be worse than one
// extra round-trip), then every block drops and the next read
// re-fetches fresh bytes.
func (f *File) invalidateCoherent(gen uint64) {
	sp := f.c.startSpan(obs.SpanContext{}, "invalidate")
	defer sp.Finish()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.cobj == nil {
		return
	}
	if err := f.flushAllLocked(sp); err != nil {
		// The flush error re-parks for the next write or Sync; the
		// invalidation still proceeds — remaining dirty blocks drop, and
		// correctness defers to the agents' (newer) bytes.
		f.c.tel.Note(evFlushFail, -1, sp, "%s: %v", f.name, err)
		f.cobj.FlushFail(err)
	}
	f.cobj.InvalidateAll(gen)
}
