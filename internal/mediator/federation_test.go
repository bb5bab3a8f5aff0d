package mediator

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"swift/internal/obs"
)

// fedInstall builds a 3-replica federation over the standard test
// installation, with leases on the shared fake clock.
func fedInstall(t *testing.T, ttl time.Duration, clk *fakeClock) *Federation {
	t.Helper()
	base := testInstall()
	if ttl > 0 {
		base.LeaseTTL = ttl
		base.Now = clk.Now
	}
	f, err := NewFederation([]string{"med-a", "med-b", "med-c"}, base)
	if err != nil {
		t.Fatalf("federation: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFederationMirrorsSessions(t *testing.T) {
	f := fedInstall(t, 0, nil)
	rec, err := f.Mediator(0).Admit(Requirements{Rate: 400e3, Key: "tenant-a"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if rec.Home != "med-a" {
		t.Fatalf("home = %q, want med-a", rec.Home)
	}
	if rec.ID&idBaseMask == 0 {
		t.Fatalf("federated session id %#x has no replica namespace", rec.ID)
	}
	f.WaitMirrors()
	for i, med := range f.Mediators() {
		if n := med.Sessions(); n != 1 {
			t.Fatalf("replica %d: sessions = %d, want 1", i, n)
		}
		for a := range testInstall().Agents {
			if med.AgentLoad(a) != f.Mediator(0).AgentLoad(a) {
				t.Fatalf("replica %d: agent %d load diverged", i, a)
			}
		}
		st, err := med.Status()
		if err != nil {
			t.Fatalf("replica %d status: %v", i, err)
		}
		want := 0
		if i == 0 {
			want = 1
		}
		if st.HomeSessions != want {
			t.Fatalf("replica %d: home sessions = %d, want %d", i, st.HomeSessions, want)
		}
	}
}

func TestFederationCloseReleasesEverywhere(t *testing.T) {
	f := fedInstall(t, 0, nil)
	rec, err := f.Mediator(1).Admit(Requirements{Rate: 400e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	f.WaitMirrors()
	if err := f.Mediator(1).CloseSession(rec.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	f.WaitMirrors()
	for i, med := range f.Mediators() {
		if n := med.Sessions(); n != 0 {
			t.Fatalf("replica %d: sessions = %d after close", i, n)
		}
		for a := range testInstall().Agents {
			if l := med.AgentLoad(a); l != 0 {
				t.Fatalf("replica %d: agent %d load %f after close", i, a, l)
			}
		}
	}
}

func TestApplyMirrorLastWriterWins(t *testing.T) {
	cfg := testInstall()
	cfg.Self = "med-x"
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	t0 := time.Unix(2000, 0)
	rec := SessionRecord{
		ID: 42, Key: "k", Home: "med-y", Expires: t0,
		Plan: Plan{SessionID: 42, Agents: []int{0}, Addrs: []string{"agent0:7070"}, Unit: 65536, Rate: 100e3},
	}
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorUpsert, Rec: rec}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	// A stale update (earlier deadline) must not roll the lease back.
	stale := rec
	stale.Expires = t0.Add(-time.Minute)
	stale.Home = "med-z"
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorUpsert, Rec: stale}); err != nil {
		t.Fatalf("stale upsert: %v", err)
	}
	m.mu.Lock()
	s := m.sessions[42]
	home, exp := s.home, s.expires
	m.mu.Unlock()
	if home != "med-y" || !exp.Equal(t0) {
		t.Fatalf("stale mirror won: home=%q expires=%v", home, exp)
	}
	// A fresher update wins.
	fresh := rec
	fresh.Expires = t0.Add(time.Minute)
	fresh.Home = "med-z"
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorUpsert, Rec: fresh}); err != nil {
		t.Fatalf("fresh upsert: %v", err)
	}
	m.mu.Lock()
	home = m.sessions[42].home
	m.mu.Unlock()
	if home != "med-z" {
		t.Fatalf("fresh mirror lost: home=%q", home)
	}
	// Applying a mirror reserves capacity; deleting releases it.
	if m.AgentLoad(0) == 0 {
		t.Fatal("mirrored session reserved nothing")
	}
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorDelete, Rec: rec}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if l := m.AgentLoad(0); l != 0 {
		t.Fatalf("agent load %f after mirror delete", l)
	}
}

func TestRenewAdoptsMirroredSessionAfterCrash(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	f := fedInstall(t, time.Minute, clk)
	rec, err := f.Mediator(0).Admit(Requirements{Rate: 400e3, Key: "tenant-a"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	f.WaitMirrors()
	f.Kill(0)
	// The client re-targets its heartbeat to a survivor, which adopts.
	home, err := f.Mediator(1).RenewSession(*rec, obs.SpanContext{})
	if err != nil {
		t.Fatalf("renew on survivor: %v", err)
	}
	if home != "med-b" {
		t.Fatalf("adopted home = %q, want med-b", home)
	}
	st, err := f.Mediator(1).Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	if st.HomeSessions != 1 {
		t.Fatalf("home sessions = %d after adoption", st.HomeSessions)
	}
}

func TestRenewAdoptsUnknownSessionWholesale(t *testing.T) {
	// The home died before its first mirror flushed: the survivor has
	// never heard of the session and must adopt the record the client
	// carries, reservations and all.
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := New(leaseInstall(time.Minute, clk))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	rec := SessionRecord{
		ID: (7 << 48) | 1, Key: "orphan", Home: "med-dead",
		Expires: clk.Now().Add(time.Second), // nearly lapsed
		Plan:    Plan{Agents: []int{0, 1}, Addrs: []string{"agent0:7070", "agent1:7070"}, Unit: 65536, Rate: 400e3},
	}
	home, err := m.RenewSession(rec, obs.SpanContext{})
	if err != nil {
		t.Fatalf("renew unknown: %v", err)
	}
	if home != "mediator" {
		t.Fatalf("home = %q, want mediator", home)
	}
	if m.Sessions() != 1 {
		t.Fatal("adopted session not installed")
	}
	if m.AgentLoad(0) == 0 || m.AgentLoad(1) == 0 {
		t.Fatal("adoption reserved no capacity")
	}
	// Adoption granted a fresh TTL, not the stale deadline in the record.
	clk.Advance(30 * time.Second)
	if n := m.ExpireNow(); n != 0 {
		t.Fatalf("adopted session expired %d early", n)
	}
}

func TestDrainHandsSessionsToPeers(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	f := fedInstall(t, time.Minute, clk)
	rec, err := f.Mediator(0).Admit(Requirements{Rate: 400e3, Key: "tenant-a"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	f.WaitMirrors()
	handed, err := f.Drain(0)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if handed != 1 {
		t.Fatalf("handed = %d, want 1", handed)
	}
	// The session moved to the rendezvous-next peer for its key.
	wantHome := PlaceOrder("tenant-a", []string{"med-b", "med-c"})[0]
	st0, err := f.Mediator(0).Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st0.Role != "draining" {
		t.Fatalf("role = %q, want draining", st0.Role)
	}
	if st0.Handoffs != 1 || st0.HomeSessions != 0 || st0.LastHandoff.IsZero() {
		t.Fatalf("drain status: %+v", st0)
	}
	// A heartbeat that lands on the draining replica is honoured and
	// answers with the new home, re-targeting the client.
	home, err := f.Mediator(0).RenewSession(*rec, obs.SpanContext{})
	if err != nil {
		t.Fatalf("renew mid-drain: %v", err)
	}
	if home != wantHome {
		t.Fatalf("renew answered home %q, want %q", home, wantHome)
	}
	// New admissions are refused while draining.
	if _, err := f.Mediator(0).Admit(Requirements{Rate: 100e3}, obs.SpanContext{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit on draining: err = %v, want ErrDraining", err)
	}
	// The new home is home for the session.
	for i, name := range f.Names() {
		if name != wantHome {
			continue
		}
		st, err := f.Mediator(i).Status()
		if err != nil {
			t.Fatalf("status %s: %v", name, err)
		}
		if st.HomeSessions != 1 {
			t.Fatalf("%s home sessions = %d after handoff", name, st.HomeSessions)
		}
	}
}

func TestKilledReplicaRefusesEverything(t *testing.T) {
	f := fedInstall(t, 0, nil)
	rec, err := f.Mediator(0).Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	f.WaitMirrors()
	f.Kill(0)
	m := f.Mediator(0)
	if _, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{}); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("admit: %v", err)
	}
	if _, err := m.RenewSession(*rec, obs.SpanContext{}); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("renew: %v", err)
	}
	if err := m.CloseSession(rec.ID); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("close: %v", err)
	}
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorUpsert, Rec: *rec}); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("apply: %v", err)
	}
	if _, err := m.Status(); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("status: %v", err)
	}
	if _, err := m.Drain(); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("drain: %v", err)
	}
	if _, err := m.Snapshot(); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("snapshot: %v", err)
	}
	// Kill is idempotent and Close after Kill is clean.
	m.Kill()
}

func TestRestartReconcilesFromPeers(t *testing.T) {
	f := fedInstall(t, 0, nil)
	var ids []uint64
	for i := 0; i < 3; i++ {
		rec, err := f.Mediator(i).Admit(Requirements{Rate: 200e3, Key: fmt.Sprintf("t%d", i)}, obs.SpanContext{})
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		ids = append(ids, rec.ID)
	}
	f.WaitMirrors()
	f.Kill(0)
	if err := f.Restart(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	m := f.Mediator(0)
	if n := m.Sessions(); n != 3 {
		t.Fatalf("restarted replica sessions = %d, want 3", n)
	}
	for a := range testInstall().Agents {
		if m.AgentLoad(a) != f.Mediator(1).AgentLoad(a) {
			t.Fatalf("agent %d load diverged after restart", a)
		}
	}
	// The restarted replica must not re-issue a live id from its former
	// namespace: its next admission gets a strictly larger sequence.
	rec, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("post-restart admit: %v", err)
	}
	for _, id := range ids {
		if rec.ID == id {
			t.Fatalf("restarted replica re-issued live session id %#x", id)
		}
	}
}

// TestPlacementStableUnderMembershipChange is the rendezvous property:
// removing a replica re-homes only the sessions it owned, and adding one
// steals only ~1/N of the keys — never shuffles the rest.
func TestPlacementStableUnderMembershipChange(t *testing.T) {
	replicas := []string{"med-a", "med-b", "med-c", "med-d", "med-e"}
	const keys = 1000
	key := func(i int) string { return fmt.Sprintf("client-%d", i) }

	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		before[key(i)] = Place(key(i), replicas)
	}

	// Remove med-c: every key homed elsewhere must stay put.
	without := []string{"med-a", "med-b", "med-d", "med-e"}
	moved := 0
	for i := 0; i < keys; i++ {
		now := Place(key(i), without)
		if before[key(i)] == "med-c" {
			moved++
			if now == "med-c" {
				t.Fatal("key still placed on removed replica")
			}
		} else if now != before[key(i)] {
			t.Fatalf("key %s re-homed %s -> %s though its replica survived", key(i), before[key(i)], now)
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("removal moved %d/%d keys; want roughly 1/5", moved, keys)
	}

	// Add med-f: only keys stolen by med-f may move.
	with := append(append([]string(nil), replicas...), "med-f")
	stolen := 0
	for i := 0; i < keys; i++ {
		now := Place(key(i), with)
		if now != before[key(i)] {
			if now != "med-f" {
				t.Fatalf("key %s moved %s -> %s on an add", key(i), before[key(i)], now)
			}
			stolen++
		}
	}
	// Expect ~1/6 of the keys; allow a wide statistical margin.
	if stolen < keys/12 || stolen > keys/3 {
		t.Fatalf("add stole %d/%d keys; want roughly 1/6", stolen, keys)
	}

	// Placement order is a permutation, deterministic, and ignores input order.
	ord := PlaceOrder("some-key", replicas)
	if len(ord) != len(replicas) {
		t.Fatalf("order has %d entries, want %d", len(ord), len(replicas))
	}
	shuffled := append([]string(nil), replicas...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	ord2 := PlaceOrder("some-key", shuffled)
	for i := range ord {
		if ord[i] != ord2[i] {
			t.Fatalf("placement order depends on input order: %v vs %v", ord, ord2)
		}
	}
}

// TestForeignAgentIndicesDoNotPanicRelease is the release-side twin of
// reserveLocked's foreign-index guard: a mirrored (or client-carried)
// record whose agent indices do not exist in this installation inserts
// without reserving those entries, and must release the same way — via
// mirror delete, close, and lease expiry — instead of panicking the
// replica with an index out of range.
func TestForeignAgentIndicesDoNotPanicRelease(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	cfg := leaseInstall(time.Minute, clk)
	cfg.Self = "med-x"
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	foreign := func(id uint64) SessionRecord {
		return SessionRecord{
			ID: id, Key: "foreign", Home: "med-far", Expires: clk.Now().Add(time.Minute),
			Plan: Plan{SessionID: id, Agents: []int{0, 97, -1}, Addrs: []string{"a", "b", "c"}, Unit: 65536, Rate: 300e3},
		}
	}
	// Mirror-delete path.
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorUpsert, Rec: foreign(1)}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorDelete, Rec: foreign(1)}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// Close path.
	if err := m.ApplyMirror(MirrorUpdate{Op: MirrorUpsert, Rec: foreign(2)}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	if err := m.CloseSession(2); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Lease-expiry path (adoption installs the record wholesale).
	if _, err := m.RenewSession(foreign(3), obs.SpanContext{}); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	clk.Advance(2 * time.Minute)
	if n := m.ExpireNow(); n != 1 {
		t.Fatalf("expired %d foreign sessions, want 1", n)
	}
	// The in-range index must be fully released; loads end at exactly zero.
	if l := m.AgentLoad(0); l != 0 {
		t.Fatalf("agent 0 load %g after foreign churn, want 0", l)
	}
}

// failingPeer is a Peer whose Mirror can be switched between refusing
// and recording updates — the seam for delete-retry tests.
type failingPeer struct {
	mu      sync.Mutex
	name    string
	failing bool
	tries   int // Mirror calls, refused ones included
	got     []MirrorUpdate
}

func (p *failingPeer) Name() string { return p.name }

func (p *failingPeer) SetFailing(v bool) {
	p.mu.Lock()
	p.failing = v
	p.mu.Unlock()
}

func (p *failingPeer) Got() []MirrorUpdate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]MirrorUpdate(nil), p.got...)
}

func (p *failingPeer) Tries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tries
}

func (p *failingPeer) Mirror(u MirrorUpdate) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tries++
	if p.failing {
		return errors.New("peer unreachable")
	}
	p.got = append(p.got, u)
	return nil
}

// TestFailedMirrorDeleteIsRetried: a MirrorDelete a peer refuses must be
// parked and re-offered on later mirror activity — a dropped delete has
// no renewal to repair it, and with leases disabled the peer would keep
// the phantom reservation forever.
func TestFailedMirrorDeleteIsRetried(t *testing.T) {
	cfg := testInstall()
	cfg.Self = "med-a"
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	peer := &failingPeer{name: "med-b", failing: true}
	m.SetPeers([]Peer{peer})
	rec, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := m.CloseSession(rec.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	m.WaitMirrors() // delete attempted against the failing peer and parked
	peer.SetFailing(false)
	m.WaitMirrors() // flush barrier retries the parked delete
	var deletes int
	for _, u := range peer.Got() {
		if u.Op == MirrorDelete && u.Rec.ID == rec.ID {
			deletes++
		}
	}
	if deletes == 0 {
		t.Fatal("refused MirrorDelete was never retried; peer keeps a phantom reservation")
	}
}

// TestDrainHandoffCarriesFreshLease: a renewal landing between Drain's
// snapshot and the handoff must not make the handoff carry a stale
// deadline — the peer judges upserts by last-writer-wins on Expires, and
// a stale handoff would leave the draining replica recorded as home.
// The first-choice peer refuses the handoff and sneaks a renewal in; the
// second-choice peer must then see the renewed deadline.
func TestDrainHandoffCarriesFreshLease(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	cfg := leaseInstall(time.Minute, clk)
	cfg.Self = "med-a"
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	rec, err := m.Admit(Requirements{Rate: 100e3, Key: "tenant-a"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	renewed := clk.Now().Add(30 * time.Second).Add(time.Minute)
	first := &renewingPeer{m: m, rec: *rec, clk: clk}
	second := &failingPeer{name: ""}
	order := PlaceOrder("tenant-a", []string{"med-b", "med-c"})
	first.name, second.name = order[0], order[1]
	m.SetPeers([]Peer{first, second})
	if _, err := m.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The second peer also receives asynchronous mirror-loop upserts
	// (Home=med-a); the handoff is the update naming it as the new home.
	var handoffs int
	for _, u := range second.Got() {
		if u.Op != MirrorUpsert || u.Rec.Home != second.name {
			continue
		}
		handoffs++
		if !u.Rec.Expires.Equal(renewed) {
			t.Fatalf("handoff carries deadline %v, want the mid-drain renewal's %v", u.Rec.Expires, renewed)
		}
	}
	if handoffs == 0 {
		t.Fatal("second peer never received the handoff")
	}
}

// renewingPeer refuses its first Mirror after sneaking in a renewal —
// the deterministic stand-in for a heartbeat racing Drain's handoff.
type renewingPeer struct {
	mu   sync.Mutex
	name string
	m    *Mediator
	rec  SessionRecord
	clk  *fakeClock
	done bool
}

func (p *renewingPeer) Name() string { return p.name }

func (p *renewingPeer) Mirror(u MirrorUpdate) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.done {
		p.done = true
		p.clk.Advance(30 * time.Second)
		if _, err := p.m.RenewSession(p.rec, obs.SpanContext{}); err != nil {
			return fmt.Errorf("mid-drain renew: %w", err)
		}
		return errors.New("peer unreachable")
	}
	return nil
}

// TestRenewAtExactDeadline is the TTL-boundary regression: a lease is
// valid through its deadline instant, so a renew (or sweep) landing at
// exactly T0+TTL must not find the session expired.
func TestRenewAtExactDeadline(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := New(leaseInstall(time.Minute, clk))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	p, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	clk.Advance(time.Minute) // exactly the deadline
	if n := m.ExpireNow(); n != 0 {
		t.Fatalf("sweep at the deadline instant reaped %d", n)
	}
	if _, err := m.RenewSession(*p, obs.SpanContext{}); err != nil {
		t.Fatalf("renew at the deadline instant: %v", err)
	}
	clk.Advance(time.Minute + time.Nanosecond) // one past the new deadline
	if n := m.ExpireNow(); n != 1 {
		t.Fatalf("sweep past the deadline reaped %d, want 1", n)
	}
}

// TestRenewVsExpiryHammer races renewals, closes, and expiry sweeps;
// whatever interleaving wins, reservations must come back to exactly zero.
func TestRenewVsExpiryHammer(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := New(leaseInstall(time.Millisecond, clk))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	const rounds = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	sweeperDone := make(chan struct{})
	go func() { // expiry storm
		defer close(sweeperDone)
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(time.Millisecond)
				m.ExpireNow()
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, err := m.Admit(Requirements{Rate: 50e3}, obs.SpanContext{})
				if err != nil {
					continue // admission full under churn; fine
				}
				m.RenewSession(*p, obs.SpanContext{})
				m.CloseSession(p.ID)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sweeperDone
	clk.Advance(time.Hour)
	m.ExpireNow()
	if n := m.Sessions(); n != 0 {
		t.Fatalf("%d sessions survive the hammer", n)
	}
	for i := range testInstall().Agents {
		if l := m.AgentLoad(i); l != 0 {
			t.Fatalf("agent %d load %g after hammer, want exactly 0", i, l)
		}
	}
	for j := 0; j < 2; j++ {
		if l := m.NetLoad(j); l != 0 {
			t.Fatalf("net %d load %g after hammer, want exactly 0", j, l)
		}
	}
}
