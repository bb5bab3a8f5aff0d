package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"swift/internal/mediator"
	"swift/internal/obs"
)

// brokerFed builds a 3-replica in-process federation with leases on a
// fake clock and a broker over it that never sleeps.
func brokerFed(t *testing.T, key string) (*mediator.Federation, *MediatorBroker) {
	t.Helper()
	f, err := mediator.NewFederation([]string{"med-a", "med-b", "med-c"}, brokerInstall())
	if err != nil {
		t.Fatalf("federation: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	var eps []MediatorEndpoint
	for _, m := range f.Mediators() {
		eps = append(eps, m)
	}
	b, err := NewMediatorBroker(BrokerConfig{
		Endpoints: eps,
		Key:       key,
		Sleep:     func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("broker: %v", err)
	}
	return f, b
}

// brokerInstall is the installation brokerFed's replicas share: six
// agents on two nets, leases on a fake clock.
func brokerInstall() mediator.Config {
	agents := make([]mediator.AgentInfo, 6)
	for i := range agents {
		agents[i] = mediator.AgentInfo{Addr: "agent:7070", Rate: 400e3, Net: i / 3}
	}
	clk := struct {
		mu  sync.Mutex
		now time.Time
	}{now: time.Unix(1000, 0)}
	return mediator.Config{
		Agents:   agents,
		Nets:     []mediator.NetInfo{{Name: "lab", Capacity: 1.12e6}, {Name: "dept", Capacity: 1.12e6}},
		LeaseTTL: time.Minute,
		Now: func() time.Time {
			clk.mu.Lock()
			defer clk.mu.Unlock()
			return clk.now
		},
	}
}

// fedIndex maps a replica name to its federation index.
func fedIndex(t *testing.T, f *mediator.Federation, name string) int {
	t.Helper()
	for i, n := range f.Names() {
		if n == name {
			return i
		}
	}
	t.Fatalf("no replica named %q", name)
	return -1
}

func TestBrokerOpensOnHomeReplica(t *testing.T) {
	f, b := brokerFed(t, "tenant-a")
	rec, err := b.OpenSession(mediator.Requirements{Rate: 400e3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := mediator.Place("tenant-a", f.Names())
	if b.Home() != want || rec.Home != want {
		t.Fatalf("home = %q/%q, want %q", b.Home(), rec.Home, want)
	}
	if b.Failovers() != 0 {
		t.Fatalf("failovers = %d on a clean open", b.Failovers())
	}
	if err := b.CloseSession(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f.WaitMirrors()
	for i, m := range f.Mediators() {
		if n := m.Sessions(); n != 0 {
			t.Fatalf("replica %d: %d sessions after close", i, n)
		}
	}
}

// TestBrokerFailoverMatrix kills the home replica at each stage of the
// session life cycle and asserts the broker lands on a survivor without
// losing the session.
func TestBrokerFailoverMatrix(t *testing.T) {
	t.Run("home dead before open", func(t *testing.T) {
		f, b := brokerFed(t, "tenant-a")
		home := mediator.Place("tenant-a", f.Names())
		f.Kill(fedIndex(t, f, home))
		rec, err := b.OpenSession(mediator.Requirements{Rate: 400e3})
		if err != nil {
			t.Fatalf("open with dead home: %v", err)
		}
		if rec.Home == home || b.Home() == home {
			t.Fatalf("session homed on the dead replica %q", home)
		}
		if err := b.Renew(); err != nil {
			t.Fatalf("renew: %v", err)
		}
	})

	t.Run("home dead after open, mirror arrived", func(t *testing.T) {
		f, b := brokerFed(t, "tenant-a")
		if _, err := b.OpenSession(mediator.Requirements{Rate: 400e3}); err != nil {
			t.Fatalf("open: %v", err)
		}
		home := b.Home()
		f.WaitMirrors() // the mirror reached the survivors
		f.Kill(fedIndex(t, f, home))
		if err := b.Renew(); err != nil {
			t.Fatalf("renew after home crash: %v", err)
		}
		if b.Home() == home {
			t.Fatal("renew did not re-target off the dead home")
		}
		if b.Failovers() != 1 {
			t.Fatalf("failovers = %d, want 1", b.Failovers())
		}
		if b.RenewFailures() != 0 {
			t.Fatalf("renew failures = %d, want 0", b.RenewFailures())
		}
		// The survivor adopted; its accounting carries the session.
		surv := fedIndex(t, f, b.Home())
		st, err := f.Mediator(surv).Status()
		if err != nil {
			t.Fatalf("survivor status: %v", err)
		}
		if st.HomeSessions != 1 || st.Failovers != 1 {
			t.Fatalf("survivor status after adoption: %+v", st)
		}
	})

	t.Run("home dead before first mirror flushed", func(t *testing.T) {
		// Worst case: the home crashed before replicating the session.
		// The broker still holds the record, so a survivor adopts it
		// wholesale from the renewal.
		f, b := brokerFed(t, "tenant-a")
		if _, err := b.OpenSession(mediator.Requirements{Rate: 400e3}); err != nil {
			t.Fatalf("open: %v", err)
		}
		home := b.Home()
		// Kill without WaitMirrors: with the fan-out loop dead the queued
		// mirror is never offered, simulating a crash before replication.
		f.Kill(fedIndex(t, f, home))
		if err := b.Renew(); err != nil {
			t.Fatalf("renew with unreplicated session: %v", err)
		}
		if b.Home() == home {
			t.Fatal("renew did not re-target")
		}
		surv := fedIndex(t, f, b.Home())
		if n := f.Mediator(surv).Sessions(); n != 1 {
			t.Fatalf("survivor sessions = %d, want the adopted 1", n)
		}
	})

	t.Run("drain re-targets without failures", func(t *testing.T) {
		f, b := brokerFed(t, "tenant-a")
		if _, err := b.OpenSession(mediator.Requirements{Rate: 400e3}); err != nil {
			t.Fatalf("open: %v", err)
		}
		home := b.Home()
		idx := fedIndex(t, f, home)
		// Renewals race the drain from several goroutines; none may fail.
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					if err := b.Renew(); err != nil {
						errs <- err
					}
				}
			}()
		}
		handed, err := f.Drain(idx)
		wg.Wait()
		close(errs)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if handed != 1 {
			t.Fatalf("handed = %d, want 1", handed)
		}
		for err := range errs {
			t.Fatalf("renew rejected during drain: %v", err)
		}
		// The next heartbeat follows the handoff to the new home.
		if err := b.Renew(); err != nil {
			t.Fatalf("post-drain renew: %v", err)
		}
		if b.Home() == home {
			t.Fatal("broker still heartbeats the drained replica")
		}
		if b.RenewFailures() != 0 {
			t.Fatalf("renew failures = %d during drain", b.RenewFailures())
		}
	})
}

// slowPeer applies mirrors to a replica after a delay: a peer one slow
// network hop away.
type slowPeer struct {
	med   *mediator.Mediator
	delay time.Duration
}

func (p slowPeer) Name() string { return p.med.Name() }

func (p slowPeer) Mirror(u mediator.MirrorUpdate) error {
	time.Sleep(p.delay)
	return p.med.ApplyMirror(u)
}

// TestCacheSyncCrossesHomes pins the coherence contract for a reader
// homed on another replica than the writer: once the writer's round has
// returned, the reader's next round names its image stale, at the
// generation the writer minted, however slowly mirrors travel between
// the two replicas.
func TestCacheSyncCrossesHomes(t *testing.T) {
	var meds [2]*mediator.Mediator
	for i, name := range []string{"med-a", "med-b"} {
		cfg := brokerInstall()
		cfg.Self = name
		m, err := mediator.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		meds[i] = m
	}
	for i, m := range meds {
		m.SetPeers([]mediator.Peer{slowPeer{med: meds[1-i], delay: 20 * time.Millisecond}})
	}
	session := func(key string, home *mediator.Mediator) *MediatorBroker {
		b, err := NewMediatorBroker(BrokerConfig{Endpoints: []MediatorEndpoint{home}, Key: key, Sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.OpenSession(mediator.Requirements{Rate: 100e3}); err != nil {
			t.Fatal(err)
		}
		return b
	}
	writer, reader := session("cc-writer", meds[0]), session("cc-reader", meds[1])
	seen := uint64(0)
	for cycle := 1; cycle <= 10; cycle++ {
		mine, err := writer.CacheSync(nil, []string{"obj"})
		if err != nil || len(mine) != 1 || mine[0].Gen != seen+1 {
			t.Fatalf("cycle %d: writer round = %+v, %v; want obj@%d", cycle, mine, err, seen+1)
		}
		stale, err := reader.CacheSync([]mediator.CachedObject{{Name: "obj", Gen: seen}}, nil)
		if err != nil || len(stale) != 1 || stale[0] != mine[0] {
			t.Fatalf("cycle %d: reader round = %+v, %v; want %+v", cycle, stale, err, mine[0])
		}
		seen = stale[0].Gen
	}
}

func TestBrokerSurfacesUnsatisfiableImmediately(t *testing.T) {
	_, b := brokerFed(t, "tenant-a")
	walks := 0
	b.cfg.Sleep = func(time.Duration) { walks++ }
	if _, err := b.OpenSession(mediator.Requirements{Rate: 1e9}); !errors.Is(err, mediator.ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	if walks != 0 {
		t.Fatalf("broker backed off %d times on a hopeless request", walks)
	}
}

func TestBrokerAllReplicasDown(t *testing.T) {
	f, b := brokerFed(t, "tenant-a")
	rec, err := b.OpenSession(mediator.Requirements{Rate: 100e3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.WaitMirrors()
	for i := range f.Names() {
		f.Kill(i)
	}
	if err := b.Renew(); !errors.Is(err, ErrMediatorsDown) {
		t.Fatalf("renew err = %v, want ErrMediatorsDown", err)
	}
	if b.RenewFailures() != 1 {
		t.Fatalf("renew failures = %d, want 1", b.RenewFailures())
	}
	if err := b.CloseSession(); !errors.Is(err, ErrMediatorsDown) {
		t.Fatalf("close err = %v, want ErrMediatorsDown", err)
	}
	_ = rec
}

func TestBrokerRenewWithoutSession(t *testing.T) {
	_, b := brokerFed(t, "k")
	if err := b.Renew(); !errors.Is(err, ErrNoMediatorSession) {
		t.Fatalf("err = %v, want ErrNoMediatorSession", err)
	}
	if err := b.CloseSession(); err != nil {
		t.Fatalf("close without session: %v", err)
	}
}

// fakeEndpoint is a replica that refuses its first admissions with the
// scripted errors and admits every one after.
type fakeEndpoint struct {
	name   string
	refuse []error
	admits int
}

func (e *fakeEndpoint) Name() string { return e.name }

func (e *fakeEndpoint) Admit(req mediator.Requirements, _ obs.SpanContext) (*mediator.SessionRecord, error) {
	e.admits++
	if len(e.refuse) > 0 {
		err := e.refuse[0]
		e.refuse = e.refuse[1:]
		return nil, err
	}
	return &mediator.SessionRecord{ID: 1, Key: req.Key, Home: e.name}, nil
}

func (e *fakeEndpoint) RenewSession(mediator.SessionRecord, obs.SpanContext) (string, error) {
	return e.name, nil
}
func (e *fakeEndpoint) CloseSession(uint64) error               { return nil }
func (e *fakeEndpoint) Status() (mediator.ReplicaStatus, error) { return mediator.ReplicaStatus{}, nil }
func (e *fakeEndpoint) CacheSync(uint64, []mediator.CachedObject, []string) ([]mediator.CachedObject, error) {
	return nil, nil
}

// TestBrokerPacedAdmitStaysHome: a home replica that answers an admission
// with an overload rejection is paced by its retry-after hint and asked
// again — the session is admitted by the home, not by the next replica in
// placement order — and the pause is counted once.
func TestBrokerPacedAdmitStaysHome(t *testing.T) {
	const key = "paced"
	a, b := &fakeEndpoint{name: "a"}, &fakeEndpoint{name: "b"}
	home, other := a, b
	if mediator.Place(key, []string{"a", "b"}) == "b" {
		home, other = b, a
	}
	const hint = 80 * time.Millisecond
	home.refuse = []error{&mediator.OverloadedError{RetryAfter: hint}}
	reg := obs.NewRegistry()
	var slept []time.Duration
	br, err := NewMediatorBroker(BrokerConfig{
		Endpoints: []MediatorEndpoint{a, b},
		Key:       key,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := br.OpenSession(mediator.Requirements{Rate: 1e3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec.Home != home.name || br.Home() != home.name || other.admits != 0 {
		t.Fatalf("admitted by %q (broker home %q, %d admits on %q); want the paced home %q",
			rec.Home, br.Home(), other.admits, other.name, home.name)
	}
	if len(slept) != 1 || slept[0] < hint-hint/4 || slept[0] > hint+hint/4 {
		t.Fatalf("paused %v, want one pause of the jittered %v hint", slept, hint)
	}
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nswift_client_mediator_paced_total 1\n") {
		t.Fatalf("paced counter not 1:\n%s", out.String())
	}
}

// TestBrokerTelemetryFamilies pins the broker's three metric families —
// HELP, TYPE and label set — as the registry goldens pin the client's,
// agent's and mediator's.
func TestBrokerTelemetryFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := NewMediatorBroker(BrokerConfig{Endpoints: []MediatorEndpoint{&fakeEndpoint{name: "med-a"}}, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP swift_client_mediator_failovers_total Times the client re-targeted its mediator session to a different replica.
# HELP swift_client_mediator_paced_total Admission attempts paced by a mediator's overload retry-after hint.
# HELP swift_client_mediator_retries_total Full replica-set walks repeated after every replica failed once.
# TYPE swift_client_mediator_failovers_total counter
# TYPE swift_client_mediator_paced_total counter
# TYPE swift_client_mediator_retries_total counter
swift_client_mediator_failovers_total
swift_client_mediator_paced_total
swift_client_mediator_retries_total
`
	if got := families(t, reg); got != want {
		t.Errorf("broker metric families differ:\n%s", lineDiff(want, got))
	}
}
