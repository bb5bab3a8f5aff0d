package mediator

import (
	"errors"
	"testing"
	"time"

	"swift/internal/obs"
)

// newCoherenceMediator builds a single replica over the standard test
// installation for direct CacheSync exercises.
func newCoherenceMediator(t *testing.T) *Mediator {
	t.Helper()
	m, err := New(testInstall())
	if err != nil {
		t.Fatalf("new mediator: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestCacheSyncAdoptsOwnWrites pins the writer-side rule: a session's
// declared writes bump the generation and come back as adoptions (the
// new generation for the object), even when the session also declares
// the object cached — never as a bare invalidation of its own cache.
func TestCacheSyncAdoptsOwnWrites(t *testing.T) {
	m := newCoherenceMediator(t)
	p, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	out, err := m.CacheSync(p.ID,
		[]CachedObject{{Name: "v", Gen: 0}}, []string{"v"})
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if len(out) != 1 || out[0].Name != "v" || out[0].Gen != 1 {
		t.Fatalf("reply = %+v, want v@1", out)
	}
	if g := m.ObjectGen("v"); g != 1 {
		t.Fatalf("gen = %d, want 1", g)
	}
	// Re-declaring the same round (a lost-reply retransmit) just bumps
	// again — harmless over-invalidation, never a stuck generation.
	out, err = m.CacheSync(p.ID, nil, []string{"v"})
	if err != nil {
		t.Fatalf("retransmit: %v", err)
	}
	if len(out) != 1 || out[0].Gen != 2 {
		t.Fatalf("retransmit reply = %+v, want v@2", out)
	}
}

// TestCacheSyncInvalidatesStaleReaders pins the reader side: only
// images behind the current generation are named, and the reply carries
// the generation to converge to.
func TestCacheSyncInvalidatesStaleReaders(t *testing.T) {
	m := newCoherenceMediator(t)
	w, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open writer: %v", err)
	}
	r, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}
	if _, err := m.CacheSync(w.ID, nil, []string{"a", "b"}); err != nil {
		t.Fatalf("writer sync: %v", err)
	}
	out, err := m.CacheSync(r.ID, []CachedObject{
		{Name: "a", Gen: 0}, // stale
		{Name: "b", Gen: 1}, // current
		{Name: "c", Gen: 0}, // never written: current by definition
	}, nil)
	if err != nil {
		t.Fatalf("reader sync: %v", err)
	}
	if len(out) != 1 || out[0].Name != "a" || out[0].Gen != 1 {
		t.Fatalf("reply = %+v, want only a@1", out)
	}
}

// TestCacheSyncUnknownSession pins the lease-loss sentinel and that an
// expired lease severs the coherence channel with it.
func TestCacheSyncUnknownSession(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	m, err := New(leaseInstall(time.Second, clk))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t.Cleanup(func() { m.Close() })

	if _, err := m.CacheSync(42, nil, nil); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown id err = %v, want ErrUnknownSession", err)
	}
	p, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := m.CacheSync(p.ID, nil, nil); err != nil {
		t.Fatalf("live sync: %v", err)
	}
	clk.Advance(2 * time.Second) // lease lapses
	if _, err := m.CacheSync(p.ID, nil, nil); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("expired lease err = %v, want ErrUnknownSession", err)
	}
}

// TestGenerationBumpCrossesFederation pins the mirror ride: a write
// declared on one replica has moved the generation on its peers by the
// time the writer's round returns, so a reader homed elsewhere hears
// about it on its next round.
func TestGenerationBumpCrossesFederation(t *testing.T) {
	f := fedInstall(t, 0, nil)
	w, err := f.Mediator(0).Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Mediator(0).CacheSync(w.ID, nil, []string{"shared"}); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for i := 0; i < 3; i++ {
		if g := f.Mediator(i).ObjectGen("shared"); g != 1 {
			t.Fatalf("replica %d gen = %d, want 1", i, g)
		}
	}
}

// TestRestartReconcilesGenerations pins the restart rule: the
// generation table dies with the process, and the restarted replica
// max-merges it back from a peer so it cannot vouch "fresh" for an
// object the federation knows was overwritten.
func TestRestartReconcilesGenerations(t *testing.T) {
	f := fedInstall(t, 0, nil)
	w, err := f.Mediator(1).Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Mediator(1).CacheSync(w.ID, nil, []string{"x"}); err != nil {
		t.Fatalf("sync: %v", err)
	}
	f.WaitMirrors()
	f.Kill(0)
	if err := f.Restart(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if g := f.Mediator(0).ObjectGen("x"); g != 1 {
		t.Fatalf("restarted replica gen = %d, want 1", g)
	}
}

// TestSyncGensMaxMerges pins that reconciliation is a max-merge: a
// stale snapshot can never roll a generation backwards.
func TestSyncGensMaxMerges(t *testing.T) {
	m := newCoherenceMediator(t)
	if err := m.SyncGens(map[string]uint64{"a": 5, "b": 2}); err != nil {
		t.Fatalf("sync gens: %v", err)
	}
	if err := m.SyncGens(map[string]uint64{"a": 3, "b": 7}); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if g := m.ObjectGen("a"); g != 5 {
		t.Fatalf("a = %d, want 5 (no rollback)", g)
	}
	if g := m.ObjectGen("b"); g != 7 {
		t.Fatalf("b = %d, want 7", g)
	}
	snap, err := m.GenSnapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(snap) != 2 || snap["a"] != 5 || snap["b"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestWriterRoundPublishesBeforeReturning pins the writer side of the
// cross-replica contract: a round that declared a write returns only
// after its generation bump was offered to every peer, so a reader homed
// on a peer sees it on its next round. A peer whose latest delivery
// failed is not waited on; the bump rides its link queue instead, and
// the first delivery that succeeds puts the peer back in the round.
func TestWriterRoundPublishesBeforeReturning(t *testing.T) {
	cfg := testInstall()
	cfg.Self = "med-a"
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	peer := &failingPeer{name: "med-b"}
	m.SetPeers([]Peer{peer})
	p, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m.WaitMirrors()
	round := func(gen uint64) {
		t.Helper()
		if out, err := m.CacheSync(p.ID, nil, []string{"v"}); err != nil || len(out) != 1 || out[0].Gen != gen {
			t.Fatalf("round = %+v, %v; want v@%d", out, err, gen)
		}
	}
	published := func(gen uint64) bool {
		for _, u := range peer.Got() {
			if u.Op == MirrorInvalidate && u.Rec.Key == "v" && u.Rec.ID == gen {
				return true
			}
		}
		return false
	}
	round(1)
	if !published(1) {
		t.Fatal("the writer's round returned before its bump reached the peer")
	}

	peer.SetFailing(true)
	tries := peer.Tries()
	round(2) // the direct delivery fails and marks the peer down
	m.WaitMirrors()
	if n := peer.Tries() - tries; n != 2 {
		t.Fatalf("refusing peer offered the bump %d times, want 2 (the round's and the queue's)", n)
	}
	tries = peer.Tries()
	round(3)
	m.WaitMirrors()
	if n := peer.Tries() - tries; n != 1 {
		t.Fatalf("down peer offered the bump %d times, want 1 (the queue's only)", n)
	}

	peer.SetFailing(false)
	round(4) // still down for the round; the queue's delivery succeeds
	m.WaitMirrors()
	round(5)
	if !published(4) || !published(5) {
		t.Fatal("a recovered peer did not rejoin the writer's round")
	}
}
