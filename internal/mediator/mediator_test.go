package mediator

import (
	"errors"
	"sync"
	"testing"
	"time"

	"swift/internal/obs"
)

// testInstall: 6 agents at 400 KB/s each, two 1.12 MB/s Ethernets,
// 3 agents per segment — the paper's two-Ethernet setup.
func testInstall() Config {
	agents := make([]AgentInfo, 6)
	for i := range agents {
		agents[i] = AgentInfo{Addr: "agent" + string(rune('0'+i)) + ":7070", Rate: 400e3, Net: i / 3}
	}
	return Config{
		Agents: agents,
		Nets:   []NetInfo{{"lab", 1.12e6}, {"dept", 1.12e6}},
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Agents: []AgentInfo{{Rate: 1}}, Nets: nil}); err == nil {
		t.Fatal("no nets accepted")
	}
	if _, err := New(Config{Agents: []AgentInfo{{Rate: 0, Net: 0}}, Nets: []NetInfo{{"n", 1}}}); err == nil {
		t.Fatal("zero-rate agent accepted")
	}
	if _, err := New(Config{Agents: []AgentInfo{{Rate: 1, Net: 5}}, Nets: []NetInfo{{"n", 1}}}); err == nil {
		t.Fatal("unknown net accepted")
	}
}

func TestLowRateUsesFewAgentsLargeUnit(t *testing.T) {
	m, _ := New(testInstall())
	p, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(p.Plan.Agents) != 1 {
		t.Fatalf("agents = %d, want 1", len(p.Plan.Agents))
	}
	if p.Plan.Unit != 256*1024 {
		t.Fatalf("unit = %d, want 256K for a one-agent session", p.Plan.Unit)
	}
}

func TestHighRateUsesManyAgentsSmallUnit(t *testing.T) {
	m, _ := New(testInstall())
	p, err := m.Admit(Requirements{Rate: 2e6}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(p.Plan.Agents) < 5 {
		t.Fatalf("agents = %d, want >= 5 for 2 MB/s over 400 KB/s agents", len(p.Plan.Agents))
	}
	if p.Plan.Unit >= 256*1024 {
		t.Fatalf("unit = %d, want smaller for high-parallelism session", p.Plan.Unit)
	}
	// The plan must span both networks: one Ethernet cannot carry 2 MB/s.
	nets := map[int]bool{}
	cfg := testInstall()
	for _, a := range p.Plan.Agents {
		nets[cfg.Agents[a].Net] = true
	}
	if len(nets) != 2 {
		t.Fatal("2 MB/s session did not span both segments")
	}
}

func TestRejectsImpossibleRate(t *testing.T) {
	m, _ := New(testInstall())
	if _, err := m.Admit(Requirements{Rate: 10e6}, obs.SpanContext{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestReservationsAccumulateAndRelease(t *testing.T) {
	m, _ := New(testInstall())
	var ids []uint64
	// Six 350 KB/s sessions fit (2.1 MB/s total against 2.24 MB/s of
	// network and 2.4 MB/s of agents) and leave only 50 KB/s per agent.
	for i := 0; i < 6; i++ {
		p, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{})
		if err != nil {
			t.Fatalf("session %d rejected: %v", i, err)
		}
		ids = append(ids, p.ID)
	}
	if _, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("7th session: err = %v, want ErrUnsatisfiable", err)
	}
	// Release one; admission works again.
	if err := m.CloseSession(ids[0]); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{}); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if m.Sessions() != 6 {
		t.Fatalf("sessions = %d", m.Sessions())
	}
}

func TestNetworkCapacityLimits(t *testing.T) {
	// One segment, three fast agents: the network, not the agents, must
	// gate admission.
	cfg := Config{
		Agents: []AgentInfo{
			{Addr: "a:1", Rate: 1e6, Net: 0},
			{Addr: "b:1", Rate: 1e6, Net: 0},
			{Addr: "c:1", Rate: 1e6, Net: 0},
		},
		Nets: []NetInfo{{"ether", 1.12e6}},
	}
	m, _ := New(cfg)
	if _, err := m.Admit(Requirements{Rate: 2e6}, obs.SpanContext{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable (network bound)", err)
	}
	if _, err := m.Admit(Requirements{Rate: 1e6}, obs.SpanContext{}); err != nil {
		t.Fatalf("1 MB/s should fit: %v", err)
	}
}

func TestRedundancyAddsAgent(t *testing.T) {
	m, _ := New(testInstall())
	p, err := m.Admit(Requirements{Rate: 300e3, Redundancy: true}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !p.Plan.Parity {
		t.Fatal("plan not marked parity")
	}
	if len(p.Plan.Agents) < 3 {
		t.Fatalf("agents = %d, want >= 3 with redundancy", len(p.Plan.Agents))
	}
}

func TestBestEffortSession(t *testing.T) {
	m, _ := New(testInstall())
	p, err := m.Admit(Requirements{}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(p.Plan.Agents) != 1 || p.Plan.Rate != 0 {
		t.Fatalf("best effort plan = %+v", p)
	}
}

func TestCloseUnknownSession(t *testing.T) {
	// Close is idempotent: unknown (never opened, already closed, or
	// lease-reaped) sessions are a no-op, not an error.
	m, _ := New(testInstall())
	if err := m.CloseSession(99); err != nil {
		t.Fatalf("err = %v, want nil (idempotent close)", err)
	}
}

func TestCloseSessionIdempotent(t *testing.T) {
	m, _ := New(testInstall())
	p, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := m.CloseSession(p.ID); err != nil {
		t.Fatalf("first close: %v", err)
	}
	// Second close must not error and must not double-release capacity.
	if err := m.CloseSession(p.ID); err != nil {
		t.Fatalf("second close: %v", err)
	}
	for i := 0; i < 6; i++ {
		if m.AgentLoad(i) < 0 || m.AgentLoad(i) != 0 {
			t.Fatalf("agent %d load %f after double close", i, m.AgentLoad(i))
		}
	}
	if m.NetLoad(0) != 0 || m.NetLoad(1) != 0 {
		t.Fatal("net load wrong after double close")
	}
}

// fakeClock is a manually advanced lease clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func leaseInstall(ttl time.Duration, clk *fakeClock) Config {
	cfg := testInstall()
	cfg.LeaseTTL = ttl
	cfg.Now = clk.Now
	return cfg
}

func TestLeaseExpiryReleasesReservations(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := New(leaseInstall(time.Minute, clk))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	// Saturate the installation, then let every lease lapse.
	var ids []uint64
	for i := 0; i < 6; i++ {
		p, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		ids = append(ids, p.ID)
	}
	if _, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("7th session: err = %v, want ErrUnsatisfiable", err)
	}
	clk.Advance(2 * time.Minute)
	if n := m.ExpireNow(); n != 6 {
		t.Fatalf("expired %d sessions, want 6", n)
	}
	if m.Sessions() != 0 {
		t.Fatalf("sessions = %d after expiry", m.Sessions())
	}
	// 100% of the reservations must be back.
	for i := 0; i < 6; i++ {
		if m.AgentLoad(i) != 0 {
			t.Fatalf("agent %d load %f after expiry", i, m.AgentLoad(i))
		}
	}
	if m.NetLoad(0) != 0 || m.NetLoad(1) != 0 {
		t.Fatal("net load not released by expiry")
	}
	// Capacity is admittable again; the dead clients' closes are no-ops.
	if _, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{}); err != nil {
		t.Fatalf("post-expiry admission: %v", err)
	}
	for _, id := range ids {
		if err := m.CloseSession(id); err != nil {
			t.Fatalf("close of expired session %d: %v", id, err)
		}
	}
}

func TestRenewKeepsLeaseAlive(t *testing.T) {
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
	// Heartbeat every 30s for five minutes: the session must survive.
	for i := 0; i < 10; i++ {
		clk.Advance(30 * time.Second)
		if _, err := m.RenewSession(*p, obs.SpanContext{}); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if m.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", m.Sessions())
	}
	// Stop the heartbeat; the lease lapses and its reservations go back.
	clk.Advance(2 * time.Minute)
	if m.Sessions() != 0 {
		t.Fatalf("sessions = %d after lapse", m.Sessions())
	}
	for i := range testInstall().Agents {
		if l := m.AgentLoad(i); l != 0 {
			t.Fatalf("agent %d load %g after lapse, want 0", i, l)
		}
	}
	// A late renewal re-adopts the session from the record the client
	// carries, with a fresh lease.
	if _, err := m.RenewSession(*p, obs.SpanContext{}); err != nil {
		t.Fatalf("renew after lapse: %v", err)
	}
	recs, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := clk.Now().Add(time.Minute)
	if len(recs) != 1 || recs[0].ID != p.ID || !recs[0].Expires.Equal(want) {
		t.Fatalf("after a late renewal: %+v, want session %d expiring %v", recs, p.ID, want)
	}
}

func TestLazyExpiryOnOpen(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := New(leaseInstall(time.Minute, clk))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	// Saturate, lapse, then admit without an explicit sweep: OpenSession
	// must reap lazily.
	for i := 0; i < 6; i++ {
		if _, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{}); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	clk.Advance(2 * time.Minute)
	if _, err := m.Admit(Requirements{Rate: 350e3}, obs.SpanContext{}); err != nil {
		t.Fatalf("admission after lapse: %v", err)
	}
}

func TestSessionListShowsLease(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := New(leaseInstall(time.Minute, clk))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer m.Close()
	rec, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	want := clk.Now().Add(time.Minute)
	if !rec.Expires.Equal(want) {
		t.Fatalf("expires = %v, want %v", rec.Expires, want)
	}
}

func TestPlanDeterministicOrder(t *testing.T) {
	m, _ := New(testInstall())
	p, _ := m.Admit(Requirements{Rate: 1.1e6}, obs.SpanContext{})
	for i := 1; i < len(p.Plan.Agents); i++ {
		if p.Plan.Agents[i-1] >= p.Plan.Agents[i] {
			t.Fatal("agent order not ascending")
		}
	}
	if len(p.Plan.Addrs) != len(p.Plan.Agents) {
		t.Fatal("addrs/agents length mismatch")
	}
}

func TestLoadAccounting(t *testing.T) {
	m, _ := New(testInstall())
	p, _ := m.Admit(Requirements{Rate: 400e3}, obs.SpanContext{})
	var total float64
	for i := 0; i < 6; i++ {
		total += m.AgentLoad(i)
	}
	if total < 399e3 || total > 401e3 {
		t.Fatalf("total agent load = %.0f, want 400e3", total)
	}
	m.CloseSession(p.ID)
	for i := 0; i < 6; i++ {
		if m.AgentLoad(i) != 0 {
			t.Fatalf("agent %d load %f after release", i, m.AgentLoad(i))
		}
	}
	if m.NetLoad(0) != 0 || m.NetLoad(1) != 0 {
		t.Fatal("net load not released")
	}
}

func TestParityShardsReserveExtraAgents(t *testing.T) {
	m, _ := New(testInstall())
	// 600 KB/s over 400 KB/s agents needs 2 data agents; k=2 adds two
	// parity agents, so the plan must hold at least 4.
	p, err := m.Admit(Requirements{Rate: 600e3, ParityShards: 2}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !p.Plan.Parity || p.Plan.ParityShards != 2 {
		t.Fatalf("plan parity=%v shards=%d, want true/2", p.Plan.Parity, p.Plan.ParityShards)
	}
	if len(p.Plan.Agents) < 4 {
		t.Fatalf("plan has %d agents, want >= 4 (2 data + 2 parity)", len(p.Plan.Agents))
	}
	// Every selected agent carries rate/(n-k): the reservation must
	// account for parity traffic on all n agents.
	data := len(p.Plan.Agents) - p.Plan.ParityShards
	perAgent := p.Plan.Rate / float64(data)
	for _, i := range p.Plan.Agents {
		if got := m.AgentLoad(i); got < perAgent*0.99 {
			t.Fatalf("agent %d load %.0f, want ~%.0f", i, got, perAgent)
		}
	}
	// Closing releases the m+k reservation exactly.
	if err := m.CloseSession(p.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, i := range p.Plan.Agents {
		if got := m.AgentLoad(i); got != 0 {
			t.Fatalf("agent %d load %.0f after close, want 0", i, got)
		}
	}
}

func TestRejectsUnsatisfiableRedundancy(t *testing.T) {
	m, _ := New(testInstall())
	// 6 agents cannot host a k=5 scheme (needs >= 7).
	if _, err := m.Admit(Requirements{ParityShards: 5}, obs.SpanContext{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("k=5 over 6 agents = %v, want ErrUnsatisfiable", err)
	}
	// Negative shard counts are nonsense, not best effort.
	if _, err := m.Admit(Requirements{ParityShards: -1}, obs.SpanContext{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("k=-1 = %v, want ErrUnsatisfiable", err)
	}
	// A rate needing all 6 agents for data leaves no room for parity.
	if _, err := m.Admit(Requirements{Rate: 2e6, ParityShards: 2}, obs.SpanContext{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("rate+k over capacity = %v, want ErrUnsatisfiable", err)
	}
}

func TestParityShardsImplyRedundancy(t *testing.T) {
	m, _ := New(testInstall())
	p, err := m.Admit(Requirements{ParityShards: 1}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !p.Plan.Parity || p.Plan.ParityShards != 1 {
		t.Fatalf("plan parity=%v shards=%d, want true/1", p.Plan.Parity, p.Plan.ParityShards)
	}
	// Legacy Redundancy without an explicit count is one parity shard.
	q, err := m.Admit(Requirements{Redundancy: true}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open legacy: %v", err)
	}
	if q.Plan.ParityShards != 1 {
		t.Fatalf("legacy redundancy shards = %d, want 1", q.Plan.ParityShards)
	}
}

// TestAdmissionWatermarkSheds pushes a reserved ratio past the watermark
// and checks that new sessions are shed with a typed, paceable rejection
// — and re-admitted once the load drains.
func TestAdmissionWatermarkSheds(t *testing.T) {
	cfg := testInstall()
	cfg.AdmitWatermark = 0.5
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// 300 KB/s lands on one 400 KB/s agent: its reserved ratio (0.75) now
	// exceeds the watermark, but the admission itself sees an empty table.
	rec, err := m.Admit(Requirements{Rate: 300e3}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit under watermark: %v", err)
	}
	_, err = m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admit over watermark = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("rejection %v does not carry a retry-after hint", err)
	}
	if oe.RetryAfter < 50*time.Millisecond {
		t.Fatalf("retry-after = %v, want >= 50ms floor", oe.RetryAfter)
	}
	if got := m.tel.Load(evOverloadReject, -1); got != 1 {
		t.Fatalf("overload rejects counter = %d, want 1", got)
	}
	// Draining the load reopens admission.
	if err := m.CloseSession(rec.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := m.Admit(Requirements{Rate: 100e3}, obs.SpanContext{}); err != nil {
		t.Fatalf("admit after drain: %v", err)
	}
}

// TestAdmissionWatermarkDisabled checks the zero value keeps the
// pre-overload-control behavior: everything the nets can carry is
// admissible (5 × 400 KB/s fills the two 1.12 MB/s segments).
func TestAdmissionWatermarkDisabled(t *testing.T) {
	m, _ := New(testInstall())
	for i := 0; i < 5; i++ {
		if _, err := m.Admit(Requirements{Rate: 400e3}, obs.SpanContext{}); err != nil {
			t.Fatalf("admit %d with no watermark: %v", i, err)
		}
	}
}
