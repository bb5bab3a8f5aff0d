package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"swift/internal/agent"
	"swift/internal/store"
	"swift/internal/transport/memnet"
)

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(3, 0.5)
	if f := b.fill(); f != 1 {
		t.Fatalf("new bucket fill = %v, want 1", f)
	}
	for i := 0; i < 3; i++ {
		if !b.spend() {
			t.Fatalf("spend %d denied on a full bucket", i)
		}
	}
	if b.spend() {
		t.Fatal("spend allowed on an empty bucket")
	}
	if f := b.fill(); f != 0 {
		t.Fatalf("empty bucket fill = %v, want 0", f)
	}
	// Two fresh ops deposit 2×0.5 = 1 token: one retry allowed again.
	b.deposit()
	b.deposit()
	if !b.spend() {
		t.Fatal("spend denied after deposits refilled one token")
	}
	if b.spend() {
		t.Fatal("second spend allowed with only one token deposited")
	}
	// Deposits never overflow the cap.
	for i := 0; i < 100; i++ {
		b.deposit()
	}
	if f := b.fill(); f != 1 {
		t.Fatalf("fill after overflow deposits = %v, want 1", f)
	}
}

// TestBreakerStateMachine drives the full closed → open → half-open →
// closed cycle with a scripted clock; no real time elapses.
func TestBreakerStateMachine(t *testing.T) {
	const threshold = 3
	const cooldown = 2 * time.Second
	now := time.Unix(1000, 0)
	var b breaker

	if !b.allow(now) {
		t.Fatal("new breaker must allow")
	}
	// Strikes below the threshold leave the breaker closed.
	for i := 0; i < threshold-1; i++ {
		if _, _, changed := b.strike(now, threshold, cooldown); changed {
			t.Fatalf("strike %d tripped below threshold", i+1)
		}
		if !b.allow(now) {
			t.Fatalf("closed breaker denied after %d strikes", i+1)
		}
	}
	// A success clears accumulated strikes.
	if _, _, changed := b.success(); changed {
		t.Fatal("success on a closed breaker reported a transition")
	}
	for i := 0; i < threshold-1; i++ {
		b.strike(now, threshold, cooldown)
	}
	// The threshold-th consecutive strike trips it open.
	from, to, changed := b.strike(now, threshold, cooldown)
	if !changed || from != BreakerClosed || to != BreakerOpen {
		t.Fatalf("trip = (%v, %v, %v), want closed->open", from, to, changed)
	}
	if b.allow(now) || b.allow(now.Add(cooldown-time.Millisecond)) {
		t.Fatal("open breaker allowed inside the cooldown")
	}
	// Further strikes while open are no-ops.
	if _, _, changed := b.strike(now, threshold, cooldown); changed {
		t.Fatal("strike on an open breaker reported a transition")
	}
	// Cooldown elapsed: half-open admits trial traffic.
	now = now.Add(cooldown)
	if !b.allow(now) {
		t.Fatal("breaker denied after the cooldown elapsed")
	}
	if b.current() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.current())
	}
	// A strike during the trial goes straight back to open.
	from, to, changed = b.strike(now, threshold, cooldown)
	if !changed || from != BreakerHalfOpen || to != BreakerOpen {
		t.Fatalf("half-open strike = (%v, %v, %v), want half-open->open", from, to, changed)
	}
	if b.allow(now) {
		t.Fatal("re-opened breaker allowed inside the new cooldown")
	}
	// Second cooldown, successful trial: closed again.
	now = now.Add(cooldown)
	if !b.allow(now) {
		t.Fatal("breaker denied after the second cooldown")
	}
	from, to, changed = b.success()
	if !changed || from != BreakerHalfOpen || to != BreakerClosed {
		t.Fatalf("trial success = (%v, %v, %v), want half-open->closed", from, to, changed)
	}
	if !b.allow(now) || b.current() != BreakerClosed {
		t.Fatal("closed breaker after recovery must allow")
	}
}

// TestBreakerCountsWrites: a completed write burst is the breaker's
// success signal like a completed read burst, so strikes are consecutive
// across all traffic and a half-open breaker closes on a write-only
// workload.
func TestBreakerCountsWrites(t *testing.T) {
	c := newOverloadCluster(t, func(cfg *Config) { cfg.BreakerThreshold = 3 })
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(64_000, 6)
	strikes := func(i int) int {
		b := &c.client.breakers[i]
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.strikes
	}

	// Two strikes, then a successful write: the count starts over.
	c.client.noteOverload(0, "test strike")
	c.client.noteOverload(0, "test strike")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := strikes(0); got != 0 {
		t.Fatalf("strikes after a completed write = %d, want 0: strikes were counted through the write", got)
	}

	// Trip agent 1 with a cooldown that has already run out; the first
	// look at it admits trial traffic, and a write is such traffic.
	b := &c.client.breakers[1]
	for i := 0; i < 3; i++ {
		b.strike(time.Now().Add(-time.Hour), 3, time.Second)
	}
	if !c.client.breakerAllow(1) || b.current() != BreakerHalfOpen {
		t.Fatalf("breaker %v after its cooldown, want half-open", b.current())
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := b.current(); got != BreakerClosed {
		t.Fatalf("breaker %v after a completed trial write, want closed", got)
	}
	if tr := c.client.tel.Load(evBreaker, 1); tr != 1 {
		t.Fatalf("agent 1 breaker transitions observed = %d, want the one closing", tr)
	}
}

// overloadCluster builds a parity cluster with overload-control knobs
// exposed, on a fast memnet segment.
func newOverloadCluster(t *testing.T, mutate func(*Config)) *cluster {
	t.Helper()
	n := memnet.New(1)
	seg := n.NewSegment("lab", memnet.SegmentConfig{
		BandwidthBps:  1e10,
		FrameOverhead: 46,
		Seed:          7,
	})
	c := &cluster{net: n, seg: seg}
	const agents = 4
	addrs := make([]string, agents)
	for i := 0; i < agents; i++ {
		h := n.MustHost(agentName(i), memnet.HostConfig{}, seg)
		st := store.NewMem()
		a, err := agent.New(h, st, agent.Config{
			ResendCheck: 5 * time.Millisecond,
			ResendAfter: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		c.agents = append(c.agents, a)
		c.stores = append(c.stores, st)
		c.hosts = append(c.hosts, h)
		addrs[i] = a.Addr()
	}
	ch := n.MustHost("client", memnet.HostConfig{}, seg)
	cfg := Config{
		Host:         ch,
		Agents:       addrs,
		Unit:         4096,
		Parity:       true,
		RetryTimeout: 20 * time.Millisecond,
		MaxRetries:   5,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.client = cl
	t.Cleanup(func() {
		cl.Close()
		for _, a := range c.agents {
			a.Close()
		}
		n.Close()
	})
	return c
}

// TestHedgedReadWins slows one agent far past the hedge delay and checks
// that the read completes correctly by reconstruction, counts a hedge
// win, and never feeds the slow agent into the failure-domain lifecycle.
func TestHedgedReadWins(t *testing.T) {
	c := newOverloadCluster(t, func(cfg *Config) {
		cfg.HedgeReads = true
	})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(64_000, 3)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}

	c.agents[0].SetReadDelay(2 * time.Second)
	out := make([]byte, len(data))
	start := time.Now()
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged read took %v; reconstruction did not beat the straggler", elapsed)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("hedged read returned wrong data")
	}
	m := c.client.MetricsSnapshot()
	if m.Hedges == 0 || m.HedgeWins == 0 {
		t.Fatalf("hedges = %d, hedge wins = %d, want both > 0", m.Hedges, m.HedgeWins)
	}
	for i, h := range c.client.Health() {
		if h.State != StateHealthy {
			t.Fatalf("agent %d state = %v after hedging, want healthy (no lifecycle flap)", i, h.State)
		}
	}
	if tr := c.client.tel.Load(evHealth, 0); tr != 0 {
		t.Fatalf("agent 0 lifecycle transitions = %d after hedging, want 0", tr)
	}
}

// TestTwoStragglersWaitedOut: when more agents stall past the hedge delay
// than the code can cover (two under 3+1), the read goes back to one of
// the stragglers for its shard rather than failing: slow beats
// unreadable, and an overload signal never makes an agent unreadable.
func TestTwoStragglersWaitedOut(t *testing.T) {
	c := newOverloadCluster(t, func(cfg *Config) {
		cfg.HedgeReads = true
		cfg.MaxRetries = 200 // a retry budget that outlasts the stragglers
	})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(12_000, 4)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}

	c.agents[0].SetReadDelay(150 * time.Millisecond)
	c.agents[1].SetReadDelay(150 * time.Millisecond)
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read with two stragglers: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("read with two stragglers returned wrong data")
	}
	if m := c.client.MetricsSnapshot(); m.Hedges < 2 {
		t.Fatalf("hedges = %d, want both stragglers hedged", m.Hedges)
	}
	for i := range c.agents {
		if tr := c.client.tel.Load(evHealth, i); tr != 0 {
			t.Fatalf("agent %d lifecycle transitions = %d after hedging, want 0", i, tr)
		}
	}
}

// TestRetryBudgetExhaustion drains the retry budget and checks that a
// failover retry is denied with ErrRetryBudget while fresh operations
// (including degraded reads around the already-failed agent) proceed.
func TestRetryBudgetExhaustion(t *testing.T) {
	c := newOverloadCluster(t, nil)
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(64_000, 4)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Drain the budget, then kill an agent: the mid-read failover that
	// would mask it must be denied.
	c.client.budget.mu.Lock()
	c.client.budget.tokens = 0
	c.client.budget.mu.Unlock()
	c.agents[1].Close()
	out := make([]byte, len(data))
	_, err = f.ReadAt(out, 0)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("read with spent budget = %v, want ErrRetryBudget", err)
	}
	if m := c.client.MetricsSnapshot(); m.BudgetDenials == 0 {
		t.Fatalf("budget denials = %d, want > 0", m.BudgetDenials)
	}

	// Fresh operations are unaffected: the failed agent's session is
	// already torn down, so the next read is a plain degraded read — no
	// retry, no budget spend.
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("fresh degraded read after denial: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("degraded read returned wrong data")
	}
}

// TestOpDeadlineExceeded gives the operation a budget far below the
// agent's injected service delay: the read must fail with ErrDeadline
// and leave the lifecycle untouched.
func TestOpDeadlineExceeded(t *testing.T) {
	c := newOverloadCluster(t, func(cfg *Config) {
		cfg.OpTimeout = 60 * time.Millisecond
	})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(32_000, 5)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}

	for i := range c.agents {
		c.agents[i].SetReadDelay(200 * time.Millisecond)
	}
	out := make([]byte, len(data))
	_, err = f.ReadAt(out, 0)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("read past deadline = %v, want ErrDeadline", err)
	}
	for i, h := range c.client.Health() {
		if h.State != StateHealthy {
			t.Fatalf("agent %d state = %v after deadline miss, want healthy", i, h.State)
		}
	}
	// With the delay cleared the same file serves reads again. The stale
	// requests queued behind the injected delay drain first — each is
	// shed on dequeue as expired.
	for i := range c.agents {
		c.agents[i].SetReadDelay(0)
	}
	time.Sleep(time.Second)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("read after recovery returned wrong data")
	}
}

// TestRowReadHonoursOpDeadline: the whole-unit read behind read-repair
// ends the operation when its deadline is spent, as any planner read
// does — it must not treat the late agent as one more missing shard and
// reconstruct on past a deadline that is global to the operation.
func TestRowReadHonoursOpDeadline(t *testing.T) {
	c := newOverloadCluster(t, func(cfg *Config) { cfg.ParityShards = 2 })
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(randBytes(32_000, 7), 0); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Healing agent 0's unit of row 0 under 2+2 takes two of the other
	// three units, the first two in code order. The first of those agents
	// straggles: the third unit could stand in for its, so only the
	// deadline can end the read — and nothing is written back.
	straggler := f.agentOfShard(0, 0)
	if straggler == 0 {
		straggler = f.agentOfShard(0, 1)
	}
	c.agents[straggler].SetReadDelay(200 * time.Millisecond)
	defer c.agents[straggler].SetReadDelay(0)
	before := c.client.MetricsSnapshot()
	f.mu.Lock()
	f.opDeadline = time.Now().Add(30 * time.Millisecond)
	jb := f.newJob(0, 0, 4096)
	jb.out[f.shardOfAgent(0, 0)] = make([]byte, 4096)
	_, err = f.healRow(jb, nil, "rewritten from parity", nil)
	f.opDeadline = time.Time{}
	f.mu.Unlock()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("unit read past the operation deadline = %v, want ErrDeadline", err)
	}
	if d := c.client.MetricsSnapshot().Sub(before); d.WriteBursts != 0 || d.Repairs != 0 {
		t.Fatalf("a unit read that missed its deadline wrote %d bursts and reported %d repairs", d.WriteBursts, d.Repairs)
	}
	for i, h := range c.client.Health() {
		if h.State != StateHealthy {
			t.Fatalf("agent %d state = %v after deadline miss, want healthy", i, h.State)
		}
	}
}
