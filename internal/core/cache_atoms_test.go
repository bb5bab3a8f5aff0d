package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

const cacheBlock = 64 << 10

// TestWriteBehindReadYourWritesAcrossMiss: a read that spans a block the
// cache does not hold followed by one it holds dirty must return the
// dirty bytes, not the agents' older copy the miss fetched past them.
// Pairs are read from the highest down because the flusher drains
// lowest-first, so the pairs read first are the ones still dirty.
func TestWriteBehindReadYourWritesAcrossMiss(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	cl := dialCacheClient(t, c, "ryw", func(cfg *Config) {
		cfg.WriteBehindMax = 8 << 20
		cfg.CacheSize = 32 << 20
	})
	const blocks = 64
	want := randBytes(blocks*cacheBlock, 21)
	f, err := cl.Open("ryw", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		if _, err := f.WriteAt(want[i*cacheBlock:(i+1)*cacheBlock], int64(i)*cacheBlock); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = cl.Open("ryw", OpenFlags{}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	newer := randBytes(blocks*cacheBlock, 22)
	for i := 1; i < blocks; i += 2 {
		odd := newer[i*cacheBlock : (i+1)*cacheBlock]
		copy(want[i*cacheBlock:], odd)
		if _, err := f.WriteAt(odd, int64(i)*cacheBlock); err != nil {
			t.Fatal(err)
		}
	}
	pair := make([]byte, 2*cacheBlock)
	for i := blocks - 2; i >= 0; i -= 2 {
		if _, err := f.ReadAt(pair, int64(i)*cacheBlock); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pair, want[i*cacheBlock:(i+2)*cacheBlock]) {
			t.Fatalf("blocks [%d,%d]: read returned bytes older than this handle's own write", i, i+1)
		}
	}
}

// TestFailedWriteThroughInvalidates: a write-through that fails part-way
// has still landed on the agents that answered, so the cached image of
// the range must go; the read after the lost agent returns sees what the
// agents hold, not the pre-write bytes.
func TestFailedWriteThroughInvalidates(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	cl := dialCacheClient(t, c, "wtfail", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.MaxRetries = 5
	})
	f, err := cl.Open("wt", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const unit, n = 4096, 12 * 4096
	old, newer := randBytes(n, 31), randBytes(n, 32)
	if _, err := f.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	if _, err := f.ReadAt(out, 0); err != nil { // the cache now holds old
		t.Fatal(err)
	}

	const lost = 1
	c.agents[lost].Close()
	if _, err := f.WriteAt(newer, 0); err == nil {
		t.Fatal("write with an agent down and no parity succeeded")
	}
	restartAgent(t, c, lost)
	cl.ProbeOnce()
	if h := cl.Health()[lost]; h.State != StateHealthy {
		t.Fatalf("restarted agent not re-admitted: %+v", h)
	}

	// Units stripe round-robin over three agents: the lost agent's kept
	// the old bytes, the others took the new ones.
	want := bytes.Clone(newer)
	for u := lost; u < n/unit; u += 3 {
		copy(want[u*unit:(u+1)*unit], old[u*unit:])
	}
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		if bytes.Equal(out, old) {
			t.Fatal("read after a failed write-through served the stale cached image")
		}
		t.Fatal("read after a failed write-through matches neither the agents nor the cache")
	}
}

// TestWriteThroughRefreshesResidentBlock: a small write-through updates
// the block it lands in instead of dropping it, so the re-read is a hit
// with the new bytes.
func TestWriteThroughRefreshesResidentBlock(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	cl := dialCacheClient(t, c, "wtkeep", func(cfg *Config) { cfg.CacheSize = 1 << 20 })
	f, err := cl.Open("keep", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := randBytes(cacheBlock, 41)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, cacheBlock)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	before := cl.CacheStats()
	patch := randBytes(4096, 42)
	if _, err := f.WriteAt(patch, 8192); err != nil {
		t.Fatal(err)
	}
	copy(data[8192:], patch)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("re-read after write-through is not the newest image")
	}
	after := cl.CacheStats()
	if after.Misses != before.Misses || after.Hits == before.Hits || after.Bytes != before.Bytes {
		t.Fatalf("write-through dropped the block: misses %d -> %d, hits %d -> %d, resident %d -> %d",
			before.Misses, after.Misses, before.Hits, after.Hits, before.Bytes, after.Bytes)
	}
}

// TestWriteBehindBackingSurvivesFullCache: an unaligned write whose two
// edge blocks both need backing must absorb even when the cache has no
// probation blocks to give up — backing the second edge used to evict
// the first, and the write never finished.
func TestWriteBehindBackingSurvivesFullCache(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	cl := dialCacheClient(t, c, "wbfull", func(cfg *Config) {
		cfg.WriteBehindMax = cacheBlock
		cfg.CacheSize = 4 * cacheBlock
	})
	f, err := cl.Open("full", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := randBytes(16*cacheBlock, 51)
	for off := 0; off < len(want); off += cacheBlock { // leaves the cache full of flushed, protected blocks
		if _, err := f.WriteAt(want[off:off+cacheBlock], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	patch := randBytes(cacheBlock, 52)
	const at = 3*cacheBlock + 100
	copy(want[at:], patch)
	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(patch, at)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("write-behind absorb never converged: each edge block's backing evicts the other's")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, err := c.client.Open("full", OpenFlags{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out := make([]byte, len(want))
	if _, err := g.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("agents do not hold the written image after Sync")
	}
}

// TestWriteBehindWriteLargerThanCache: one write-behind write larger than
// the whole cache must return and land byte-exact. Absorbing every block
// dirty before checking the budget used to pin the cache full, so the
// last block's partial atom found no room for its backing fetch and the
// write asked for the same atom forever.
func TestWriteBehindWriteLargerThanCache(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	want := randBytes(16*cacheBlock, 53)
	w, err := c.client.Open("big", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	cl := dialCacheClient(t, c, "wbbig", func(cfg *Config) {
		cfg.WriteBehindMax = cacheBlock
		cfg.CacheSize = 4 * cacheBlock
	})
	f, err := cl.Open("big", OpenFlags{})
	if err != nil {
		t.Fatal(err)
	}
	patch := randBytes(8*cacheBlock+100, 54)
	copy(want, patch)
	// A hung write holds the file lock, so the test's own cleanup would
	// deadlock behind it: fail from a timer instead.
	hung := time.AfterFunc(20*time.Second, func() {
		panic("write-behind write larger than the cache never returned")
	})
	_, err = f.WriteAt(patch, 0)
	hung.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := c.client.Open("big", OpenFlags{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out := make([]byte, len(want))
	if _, err := g.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("agents do not hold the written image after Sync")
	}
}

// TestWriteBehindWritesThroughPinnedCache: when another file's dirty
// blocks pin the whole cache, a write-behind write whose partial atom
// needs backing finds no room to place it and goes to the agents
// directly instead of waiting for room that never comes.
func TestWriteBehindWritesThroughPinnedCache(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	want := randBytes(2*cacheBlock, 55)
	w, err := c.client.Open("target", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	cl := dialCacheClient(t, c, "wbpinned", func(cfg *Config) {
		cfg.WriteBehindMax = cacheBlock
		cfg.CacheSize = 4 * cacheBlock
		cfg.MaxRetries = 5 // the writer's budget wait for the pinned cache times out in 150 ms
	})
	pin, err := cl.Open("pin", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	f, err := cl.Open("target", OpenFlags{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Holding pin's lock keeps the background flusher off its blocks.
	pin.mu.Lock()
	pin.cobj.Write(0, randBytes(4*cacheBlock, 56))
	patch := randBytes(100, 57)
	copy(want[cacheBlock:], patch)
	hung := time.AfterFunc(20*time.Second, func() {
		panic("write-behind write into a pinned cache never returned")
	})
	_, err = f.WriteAt(patch, cacheBlock)
	hung.Stop()
	dirty := f.cobj.DirtyBytes()
	pin.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 0 {
		t.Fatalf("%d dirty bytes: the write was absorbed, not written through", dirty)
	}
	g, err := c.client.Open("target", OpenFlags{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out := make([]byte, len(want))
	if _, err := g.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("the agents do not hold the write")
	}
}

// randomReadCluster writes a 4 MiB object and opens it on a second
// client with a 1 MiB cache (or none).
func randomReadCluster(t testing.TB, cacheSize int64) (*cluster, *Client, *File, []byte) {
	c := newCluster(t, clusterOpts{})
	data := randBytes(4<<20, 61)
	w, err := c.client.Open("rand", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	cl := dialCacheClient(t, c, "randreader", func(cfg *Config) { cfg.CacheSize = cacheSize })
	f, err := cl.Open("rand", OpenFlags{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return c, cl, f, data
}

// randomAtoms yields n seeded 4 KiB-aligned offsets in [0, size), never
// two adjacent in a row: a read that happens to continue the previous one
// is a sequential stream by definition, and rightly widens.
func randomAtoms(seed, size int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]int64, 0, n)
	for prev := int64(-1); len(offs) < n; {
		off := rng.Int63n(size/4096) * 4096
		if off == prev+4096 {
			continue
		}
		offs = append(offs, off)
		prev = off
	}
	return offs
}

// TestRandomReadFillAmplification is the deterministic rung under the
// small-rand workload, in counts: a random 4 KiB read through the cache
// costs one read burst when it misses and none when it hits, and the
// bytes the network carried stay within half again of the bytes read (a
// whole-block fill carried sixteen times them).
func TestRandomReadFillAmplification(t *testing.T) {
	c, cl, f, data := randomReadCluster(t, 1<<20)
	buf := make([]byte, 4096)
	wire0 := c.seg.Stats().Bytes
	var misses int64
	offs := randomAtoms(7, int64(len(data)), 2000)
	for _, off := range offs {
		m0, b0 := cl.CacheStats().Misses, cl.MetricsSnapshot().ReadBursts
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+4096]) {
			t.Fatalf("read at %d mismatch", off)
		}
		dm, db := cl.CacheStats().Misses-m0, cl.MetricsSnapshot().ReadBursts-b0
		if dm > 1 || db != dm {
			t.Fatalf("read at %d: %d misses cost %d read bursts, want one burst per miss", off, dm, db)
		}
		misses += dm
	}
	s := cl.CacheStats()
	if s.Hits == 0 || misses == 0 {
		t.Fatalf("hits=%d misses=%d: the run must see both", s.Hits, misses)
	}
	if s.FillBytes != misses*4096 {
		t.Fatalf("fill bytes = %d for %d misses, want 4096 each", s.FillBytes, misses)
	}
	read := int64(len(offs)) * 4096
	// Both directions of the segment, so an upper bound on what the
	// client received.
	if wire := c.seg.Stats().Bytes - wire0; wire*2 > read*3 {
		t.Fatalf("network carried %d bytes for %d read: %.2fx, want <= 1.5x", wire, read, float64(wire)/float64(read))
	}
}

// TestSequentialReadKeepsWholeBlockFetches: the same object read front to
// back in 4 KiB ops still fetches whole blocks — one burst per agent per
// block, what it cost before fills went atom-granular.
func TestSequentialReadKeepsWholeBlockFetches(t *testing.T) {
	_, cl, f, data := randomReadCluster(t, 1<<20)
	buf := make([]byte, 4096)
	for off := int64(0); off < int64(len(data)); off += 4096 {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+4096]) {
			t.Fatalf("read at %d mismatch", off)
		}
	}
	blocks := int64(len(data) / cacheBlock)
	if got, want := cl.MetricsSnapshot().ReadBursts, 3*blocks; got != want {
		t.Fatalf("sequential 4 KiB reads cost %d read bursts, want %d (3 agents x %d blocks)", got, want, blocks)
	}
	if s := cl.CacheStats(); s.Misses != blocks || s.FillBytes != int64(len(data)) {
		t.Fatalf("misses=%d fill=%d, want %d whole-block fills", s.Misses, s.FillBytes, blocks)
	}
}

// BenchmarkRandomReadCached is the same random 4 KiB read stream with the
// cache tier on (a quarter of the object) and off, over memnet.
func BenchmarkRandomReadCached(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int64
	}{{"cache=on", 1 << 20}, {"cache=off", -1}} {
		b.Run(tc.name, func(b *testing.B) {
			_, _, f, data := randomReadCluster(b, tc.size)
			offs := randomAtoms(7, int64(len(data)), 4096)
			buf := make([]byte, 4096)
			b.SetBytes(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(buf, offs[i%len(offs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
