package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"swift/internal/mediator"
	"swift/internal/obs"
	"swift/internal/transport/memnet"
)

// dialCacheClient dials an extra client against the cluster's agent set,
// so cache tests can run a writer and a cached reader side by side.
func dialCacheClient(t testing.TB, c *cluster, name string, mut func(*Config)) *Client {
	t.Helper()
	addrs := make([]string, len(c.agents))
	for i, a := range c.agents {
		addrs[i] = a.Addr()
	}
	h := c.net.MustHost(name, memnet.HostConfig{}, c.seg)
	cfg := Config{
		Host:         h,
		Agents:       addrs,
		Unit:         4096,
		RetryTimeout: 30 * time.Millisecond,
		MaxRetries:   100,
	}
	if mut != nil {
		mut(&cfg)
	}
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// testMediator builds an in-process mediator whose CacheSync anchors the
// coherence protocol, plus one session per requested client.
func testMediator(t *testing.T, c *cluster, sessions int) (*mediator.Mediator, []uint64) {
	t.Helper()
	infos := make([]mediator.AgentInfo, len(c.agents))
	for i, a := range c.agents {
		infos[i] = mediator.AgentInfo{Addr: a.Addr(), Rate: 1e6}
	}
	med, err := mediator.New(mediator.Config{
		Agents: infos,
		Nets:   []mediator.NetInfo{{Name: "net", Capacity: 1e12}},
	})
	if err != nil {
		t.Fatalf("mediator: %v", err)
	}
	t.Cleanup(func() { med.Close() })
	ids := make([]uint64, sessions)
	for i := range ids {
		plan, err := med.Admit(mediator.Requirements{Rate: 1e3}, obs.SpanContext{})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		ids[i] = plan.ID
	}
	return med, ids
}

// TestTwoClientCoherenceTorture is the acceptance drill for the
// coherence protocol: a writer overwrites a shared object while a second
// client keeps a cached image, and after every write/invalidate cycle
// the reader's bytes must match the writer's exactly — zero stale reads
// across well over 100 cycles. The second read of each cycle must come
// from cache, so coherence cannot "pass" by disabling caching.
func TestTwoClientCoherenceTorture(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	med, ids := testMediator(t, c, 2)

	writer := dialCacheClient(t, c, "cwriter", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[0], cached, written)
		}
	})
	reader := dialCacheClient(t, c, "creader", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[1], cached, written)
		}
	})

	wf, err := writer.Open("shared", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("writer open: %v", err)
	}
	defer wf.Close()
	const size = 40_000
	if _, err := wf.WriteAt(randBytes(size, 0), 0); err != nil {
		t.Fatalf("prefill: %v", err)
	}
	writer.CoherenceSync()

	rf, err := reader.Open("shared", OpenFlags{})
	if err != nil {
		t.Fatalf("reader open: %v", err)
	}
	defer rf.Close()

	out := make([]byte, size)
	const cycles = 120
	for i := 1; i <= cycles; i++ {
		want := randBytes(size, int64(i))
		if _, err := wf.WriteAt(want, 0); err != nil {
			t.Fatalf("cycle %d: write: %v", i, err)
		}
		writer.CoherenceSync() // declare the write, bump the generation
		reader.CoherenceSync() // learn the bump, drop the stale image
		for pass := 1; pass <= 2; pass++ {
			if _, err := rf.ReadAt(out, 0); err != nil {
				t.Fatalf("cycle %d pass %d: read: %v", i, pass, err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("cycle %d pass %d: stale read", i, pass)
			}
		}
	}

	rs := reader.CacheStats()
	if rs.Invalidations < cycles {
		t.Fatalf("reader invalidations = %d, want >= %d", rs.Invalidations, cycles)
	}
	// Pass 2 of every cycle must have been served from cache: coherence
	// that just turned caching off would show no hits at all.
	if rs.Hits == 0 {
		t.Fatal("reader recorded zero cache hits; re-reads bypassed the cache")
	}
	if gen := med.ObjectGen("shared"); gen < cycles {
		t.Fatalf("mediator generation = %d, want >= %d", gen, cycles)
	}
}

// TestCoherenceWriterAdoptsOwnGeneration pins the adopt-own-writes rule:
// a client's declared writes must come back as generation adoptions, not
// invalidations, so a single read-your-writes client keeps its hit rate.
func TestCoherenceWriterAdoptsOwnGeneration(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	med, ids := testMediator(t, c, 1)
	cl := dialCacheClient(t, c, "cowner", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[0], cached, written)
		}
	})
	f, err := cl.Open("own", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(20_000, 3)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil { // populate the cache
		t.Fatalf("read: %v", err)
	}
	cl.CoherenceSync() // declares the write; must adopt, not invalidate
	if inv := cl.CacheStats().Invalidations; inv != 0 {
		t.Fatalf("own write invalidated own cache (%d invalidations)", inv)
	}
	base := cl.CacheStats()
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("re-read mismatch")
	}
	if hits := cl.CacheStats().Hits - base.Hits; hits == 0 {
		t.Fatal("re-read after own-write sync missed the cache")
	}
}

// TestWriteBehindSyncBarrier pins the crash-safety contract: bytes
// written before Sync returns are durable on the agents even if the
// client never closes (crashes), while later dirty bytes may still be
// in flight. A second client plays the post-crash reader.
func TestWriteBehindSyncBarrier(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	writer := dialCacheClient(t, c, "wbwriter", func(cfg *Config) {
		cfg.WriteBehindMax = 1 << 20
	})
	f, err := writer.Open("wb", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()

	durable := randBytes(200_000, 11)
	if _, err := f.WriteAt(durable, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if d := writer.CacheStats().Dirty; d != 0 {
		t.Fatalf("sync returned with %d dirty bytes", d)
	}
	// More writes land after the barrier; they are allowed to still be
	// dirty when the "crash" happens.
	late := randBytes(64_000, 12)
	if _, err := f.WriteAt(late, int64(len(durable))); err != nil {
		t.Fatalf("late write: %v", err)
	}

	// The writer is now considered crashed: nothing more is flushed on
	// its behalf before the reader checks. Everything before the Sync
	// barrier must already be on the agents.
	reader := dialCacheClient(t, c, "wbreader", nil)
	rf, err := reader.Open("wb", OpenFlags{})
	if err != nil {
		t.Fatalf("reader open: %v", err)
	}
	defer rf.Close()
	out := make([]byte, len(durable))
	if _, err := rf.ReadAt(out, 0); err != nil {
		t.Fatalf("reader read: %v", err)
	}
	if !bytes.Equal(out, durable) {
		t.Fatal("pre-Sync bytes not durable on the agents")
	}
}

// TestWriteBehindAbsorbsWrites pins the asynchrony: a write under the
// dirty budget returns before any agent round-trip, and the background
// flusher (or Close) lands it without further writes.
func TestWriteBehindAbsorbsWrites(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	writer := dialCacheClient(t, c, "wbabsorb", func(cfg *Config) {
		cfg.WriteBehindMax = 1 << 20
	})
	f, err := writer.Open("absorb", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data := randBytes(100_000, 13)
	base := writer.MetricsSnapshot().WriteBursts
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if wb := writer.MetricsSnapshot().WriteBursts - base; wb != 0 {
		t.Fatalf("absorbed write cost %d agent write bursts, want 0", wb)
	}
	if err := f.Close(); err != nil { // Close flushes everything
		t.Fatalf("close: %v", err)
	}
	reader := dialCacheClient(t, c, "wbabsorbr", nil)
	rf, err := reader.Open("absorb", OpenFlags{})
	if err != nil {
		t.Fatalf("reader open: %v", err)
	}
	defer rf.Close()
	out := make([]byte, len(data))
	if _, err := rf.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("flushed bytes mismatch")
	}
}

// TestCacheSyncLostSessionDropsLease pins the lease-loss rule: when the
// mediator no longer knows the session, the client flushes dirty data
// and drops every cached image — it has no claim to coherence anymore.
func TestCacheSyncLostSessionDropsLease(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	med, ids := testMediator(t, c, 1)
	med.CloseSession(ids[0]) // lease is gone before the first sync
	cl := dialCacheClient(t, c, "clost", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[0], cached, written)
		}
	})
	f, err := cl.Open("lost", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(30_000, 17)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	cl.CoherenceSync() // ErrUnknownSession → drop the lease
	if inv := cl.CacheStats().Invalidations; inv == 0 {
		t.Fatal("lost session did not drop cached images")
	}
	// The data itself must still read back correctly (from the agents).
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("post-drop read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("post-drop read mismatch")
	}
}

// TestCoherenceManyObjects runs the torture across several objects at
// once so declared-write bookkeeping for one object cannot leak into
// another's generation.
func TestCoherenceManyObjects(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	med, ids := testMediator(t, c, 2)
	writer := dialCacheClient(t, c, "mwriter", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[0], cached, written)
		}
	})
	reader := dialCacheClient(t, c, "mreader", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[1], cached, written)
		}
	})
	const nObjs = 4
	const size = 16_000
	wfs := make([]*File, nObjs)
	rfs := make([]*File, nObjs)
	for o := 0; o < nObjs; o++ {
		name := fmt.Sprintf("multi%d", o)
		wf, err := writer.Open(name, OpenFlags{Create: true})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		defer wf.Close()
		if _, err := wf.WriteAt(randBytes(size, int64(o)), 0); err != nil {
			t.Fatalf("prefill %s: %v", name, err)
		}
		wfs[o] = wf
	}
	writer.CoherenceSync()
	for o := 0; o < nObjs; o++ {
		rf, err := reader.Open(fmt.Sprintf("multi%d", o), OpenFlags{})
		if err != nil {
			t.Fatalf("reader open %d: %v", o, err)
		}
		defer rf.Close()
		rfs[o] = rf
	}
	out := make([]byte, size)
	for i := 1; i <= 30; i++ {
		o := i % nObjs // only one object changes per cycle
		want := randBytes(size, int64(1000*i+o))
		if _, err := wfs[o].WriteAt(want, 0); err != nil {
			t.Fatalf("cycle %d: write: %v", i, err)
		}
		writer.CoherenceSync()
		reader.CoherenceSync()
		if _, err := rfs[o].ReadAt(out, 0); err != nil {
			t.Fatalf("cycle %d: read: %v", i, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("cycle %d: stale read on object %d", i, o)
		}
	}
}

// TestCacheLessWriterDeclaresWrites pins that write declaration is
// independent of local caching: a client with the coherence channel
// wired but the cache disabled (a plain command-line writer) must still
// declare its writes on the next sync, so cached readers elsewhere get
// invalidated — and must not panic trying to track them.
func TestCacheLessWriterDeclaresWrites(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	med, ids := testMediator(t, c, 2)

	writer := dialCacheClient(t, c, "nakedwriter", func(cfg *Config) {
		cfg.CacheSize = -1 // caching off, coherence on
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[0], cached, written)
		}
	})
	reader := dialCacheClient(t, c, "cachedreader", func(cfg *Config) {
		cfg.CacheSize = 1 << 20
		cfg.CacheSync = func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
			return med.CacheSync(ids[1], cached, written)
		}
	})

	const name = "naked-obj"
	v1 := bytes.Repeat([]byte{0x11}, 32<<10)
	wf, err := writer.Open(name, OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("writer open: %v", err)
	}
	defer wf.Close()
	if _, err := wf.WriteAt(v1, 0); err != nil {
		t.Fatalf("write v1: %v", err)
	}
	writer.CoherenceSync() // must not panic, must declare the write

	rf, err := reader.Open(name, OpenFlags{})
	if err != nil {
		t.Fatalf("reader open: %v", err)
	}
	defer rf.Close()
	got := make([]byte, len(v1))
	if _, err := rf.ReadAt(got, 0); err != nil {
		t.Fatalf("read v1: %v", err)
	}

	v2 := bytes.Repeat([]byte{0x22}, 32<<10)
	if _, err := wf.WriteAt(v2, 0); err != nil {
		t.Fatalf("write v2: %v", err)
	}
	writer.CoherenceSync()
	reader.CoherenceSync() // must hear about v2 and drop the cached image
	if _, err := rf.ReadAt(got, 0); err != nil {
		t.Fatalf("read v2: %v", err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("stale read: got %x... want %x...", got[:4], v2[:4])
	}
	if inv := reader.CacheStats().Invalidations; inv == 0 {
		t.Fatalf("reader saw no invalidations; cache-less writer never declared")
	}
	if g := med.ObjectGen(name); g < 2 {
		t.Fatalf("gen = %d, want >= 2", g)
	}
}
