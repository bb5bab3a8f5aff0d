package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"swift/internal/transport"
	"swift/internal/transport/memnet"
)

// memnetTestHost returns a throwaway host for config-validation tests.
func memnetTestHost(t *testing.T) transport.Host {
	t.Helper()
	n := memnet.New(1)
	t.Cleanup(n.Close)
	seg := n.NewSegment("s", memnet.SegmentConfig{BandwidthBps: 1e9})
	return n.MustHost("h", memnet.HostConfig{}, seg)
}

func TestParityRoundTrip(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: 2048})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(50_000, 20)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("parity round trip mismatch")
	}
}

func TestParityUnitsAreConsistent(t *testing.T) {
	// Verify on the agents' stores that each row's parity unit equals
	// the XOR of its data units.
	const unit = 1024
	c := newCluster(t, clusterOpts{agents: 3, parity: true, unit: unit})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	data := randBytes(3*unit*2+777, 21) // a few rows plus a partial tail
	f.WriteAt(data, 0)

	l := c.client.Layout()
	lastRow := l.RowOfGlobal(int64(len(data)) - 1)
	for row := int64(0); row <= lastRow; row++ {
		want := make([]byte, unit)
		var pbuf []byte
		for a := 0; a < 3; a++ {
			obj, err := c.stores[a].Open("obj", false)
			if err != nil {
				t.Fatalf("agent %d: %v", a, err)
			}
			buf := make([]byte, unit)
			obj.ReadAt(buf, row*unit) // zero-padded tail is fine
			obj.Close()
			if a == l.ParityAgent(row) {
				pbuf = buf
				continue
			}
			for i, b := range buf {
				want[i] ^= b
			}
		}
		if !bytes.Equal(pbuf, want) {
			t.Fatalf("row %d: parity unit is not the XOR of the data units", row)
		}
	}
}

func TestDegradedRead(t *testing.T) {
	for dead := 0; dead < 4; dead++ {
		c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: 2048})
		f, _ := c.client.Open("obj", OpenFlags{Create: true})
		data := randBytes(60_000, 22)
		f.WriteAt(data, 0)
		f.Close()

		// Kill one agent, then reopen and read everything.
		c.agents[dead].Close()
		c.client.MarkDown(dead, true)
		g, err := c.client.Open("obj", OpenFlags{})
		if err != nil {
			t.Fatalf("dead=%d: degraded open: %v", dead, err)
		}
		if g.Size() != int64(len(data)) {
			// The failed agent may have held the tail; the size can
			// understate, but never overstate.
			if g.Size() > int64(len(data)) {
				t.Fatalf("dead=%d: degraded size %d > real %d", dead, g.Size(), len(data))
			}
		}
		out := make([]byte, len(data))
		if err := g.readRange(out, 0, true, nil); err != nil {
			t.Fatalf("dead=%d: degraded read: %v", dead, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("dead=%d: degraded read mismatch", dead)
		}
		g.Close()
	}
}

func TestDegradedWriteThenRead(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	data := randBytes(40_000, 23)
	f.WriteAt(data, 0)
	f.Close()

	// Agent 1 dies; overwrite a region in degraded mode.
	c.agents[1].Close()
	c.client.MarkDown(1, true)
	g, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	patch := randBytes(10_000, 24)
	if _, err := g.WriteAt(patch, 5_000); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	copy(data[5_000:], patch)
	out := make([]byte, len(data))
	if err := g.readRange(out, 0, true, nil); err != nil {
		t.Fatalf("degraded read-back: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("degraded write mismatch")
	}
	g.Close()
}

func TestMidOperationFailover(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	data := randBytes(50_000, 25)
	f.WriteAt(data, 0)

	// Agent dies while the file is open: the next read discovers the
	// failure through retry exhaustion and fails over to degraded mode.
	c.agents[2].Close()
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("failover read mismatch")
	}
	// One attributable error moves the agent into the failure-domain
	// lifecycle (suspect on first strike; the monitor or a second strike
	// takes it down).
	if st := c.client.Health()[2].State; st == StateHealthy {
		t.Fatalf("agent 2 still %v after failover", st)
	}
	if c.client.Health()[2].Failures == 0 {
		t.Fatal("agent 2 failure count not recorded")
	}
}

func TestRebuild(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	data := randBytes(45_000, 26)
	f.WriteAt(data, 0)
	f.Close()

	// Lose agent 3's fragment entirely (simulates disk replacement).
	if err := c.stores[3].Remove("obj"); err != nil {
		t.Fatalf("remove fragment: %v", err)
	}

	// Rebuild it from the survivors.
	g, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open for rebuild: %v", err)
	}
	if err := g.Rebuild(3); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	g.Close()

	// The rebuilt fragment matches what striping expects.
	want := c.client.Layout().FragmentSizes(int64(len(data)))[3]
	got, err := c.stores[3].Stat("obj")
	if err != nil {
		t.Fatalf("stat rebuilt: %v", err)
	}
	if got != want {
		t.Fatalf("rebuilt fragment size = %d, want %d", got, want)
	}

	// And a healthy read returns the original data.
	h, _ := c.client.Open("obj", OpenFlags{})
	defer h.Close()
	out := make([]byte, len(data))
	if _, err := h.ReadAt(out, 0); err != nil {
		t.Fatalf("read after rebuild: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("rebuild mismatch")
	}
}

func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	const unit = 1024
	c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: unit})
	f, _ := c.client.Open("scrub", OpenFlags{Create: true})
	defer f.Close()
	data := randBytes(20_000, 95)
	f.WriteAt(data, 0)
	scrub := func(when string, opts ScrubOptions) ScrubReport {
		t.Helper()
		rep, err := f.Scrub(opts)
		if err != nil {
			t.Fatalf("scrub %s: %v", when, err)
		}
		return rep
	}

	// A clean file scrubs clean.
	if rep := scrub("clean", ScrubOptions{}); !rep.Clean() || rep.Rows != 7 {
		t.Fatalf("clean file: %s, want all 7 rows verified clean", rep)
	}

	// Corrupt one byte of agent 2's fragment in row 3 (bit rot beneath no
	// envelope: the agent serves it without complaint).
	row := int64(3)
	obj, err := c.stores[2].Open("scrub", false)
	if err != nil {
		t.Fatal(err)
	}
	evil := []byte{0xFF}
	if _, err := obj.WriteAt(evil, row*unit+17); err != nil {
		t.Fatal(err)
	}
	obj.Close()

	// Detection alone finds exactly that row and rewrites nothing.
	if rep := scrub("after corruption", ScrubOptions{}); rep.ParityMismatches != 1 || rep.Repaired != 0 {
		t.Fatalf("after corruption: %s, want one parity mismatch and no repair", rep)
	}

	// If agent 2 held the parity unit of that row, the repair restores
	// consistency from the data; otherwise it recomputes parity to match
	// the (now-corrupt) data — either way the row scrubs clean after.
	if rep := scrub("repair", ScrubOptions{Repair: true}); rep.ParityMismatches != 1 || rep.Repaired != 1 {
		t.Fatalf("repair: %s, want the one mismatch mended by one rewritten parity unit", rep)
	}
	if rep := scrub("after repair", ScrubOptions{}); !rep.Clean() {
		t.Fatalf("after repair: %s, want clean", rep)
	}

	// A row with an agent out cannot be judged: it is skipped, not failed.
	f.mu.Lock()
	f.failAgent(1, ErrAgentDown)
	f.mu.Unlock()
	if rep := scrub("agent out", ScrubOptions{Repair: true}); rep.Skipped == 0 || rep.Rows != 0 || rep.Repaired != 0 {
		t.Fatalf("agent out: %s, want every row skipped", rep)
	}
}

// TestScrubRequiresParity: without parity a scrub has no equation to
// audit and nothing to mend with — it reads every unit, finds no
// mismatch even over rot, and repairs nothing.
func TestScrubRequiresParity(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3})
	f, _ := c.client.Open("noparity", OpenFlags{Create: true})
	defer f.Close()
	f.WriteAt(randBytes(20_000, 96), 0)
	obj, err := c.stores[1].Open("noparity", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.WriteAt([]byte{0xFF}, 17); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	rep, err := f.Scrub(ScrubOptions{Repair: true})
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Scheme != "none" || rep.Rows == 0 || rep.ParityMismatches != 0 || rep.Repaired != 0 {
		t.Fatalf("scrub without parity: %s, want rows read, nothing audited or repaired", rep)
	}
}

func TestParityRequiresThreeAgents(t *testing.T) {
	n := memnetTestHost(t)
	_, err := Dial(Config{Host: n, Agents: []string{"a:1", "b:1"}, Parity: true})
	if err == nil {
		t.Fatal("expected error for parity with 2 agents")
	}
}

// TestRebuildTrimsAfterTruncateToZero: an agent that was out while the
// file was truncated to nothing comes back holding its old fragment. The
// rebuild has no rows to write, but it must still trim: a fresh open
// would otherwise size the object from the stale bytes.
func TestRebuildTrimsAfterTruncateToZero(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	f.WriteAt(randBytes(45_000, 27), 0)

	f.mu.Lock()
	f.sessions[3].close()
	f.sessions[3] = nil
	f.mu.Unlock()
	if err := f.Truncate(0); err != nil {
		t.Fatalf("truncate with agent 3 out: %v", err)
	}
	if err := f.readmit(3, true); err != nil {
		t.Fatalf("readmit: %v", err)
	}
	if got, err := c.stores[3].Stat("obj"); err != nil || got != 0 {
		t.Fatalf("readmitted fragment = %d bytes (%v), want 0", got, err)
	}
	g, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("fresh open: %v", err)
	}
	defer g.Close()
	if g.Size() != 0 {
		t.Fatalf("fresh open sees size %d, want 0", g.Size())
	}
}

// fragmentOf returns the whole fragment of name in agent's store, and with
// junk set overwrites it there with noise — for a rebuild to put right.
func fragmentOf(t *testing.T, c *cluster, agent int, name string, junk bool) []byte {
	t.Helper()
	obj, err := c.stores[agent].Open(name, false)
	if err != nil {
		t.Fatalf("open fragment of agent %d: %v", agent, err)
	}
	defer obj.Close()
	size, _ := obj.Size()
	frag := make([]byte, size)
	if _, err := obj.ReadAt(frag, 0); err != nil {
		t.Fatalf("read fragment of agent %d: %v", agent, err)
	}
	if junk {
		if _, err := obj.WriteAt(randBytes(len(frag), 99), 0); err != nil {
			t.Fatalf("overwrite fragment of agent %d: %v", agent, err)
		}
	}
	return frag
}

// TestRebuildFetchesOnlyMShards: rebuilding a unit takes m of the row's
// other units, not all of them — one read burst per shard fetched, for a
// data holder and a parity holder of row 0 alike.
func TestRebuildFetchesOnlyMShards(t *testing.T) {
	const unit, rows = 2048, 8
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: unit})
	f, data := writeObj(t, c, "obj", rows*3*unit, 28)
	defer f.Close()
	l := c.client.Layout()
	for _, x := range []int{l.DataAgent(0, 0), l.ParityAgentAt(0, 0)} {
		want := fragmentOf(t, c, x, "obj", true)
		before := c.client.MetricsSnapshot()
		if err := f.Rebuild(x); err != nil {
			t.Fatalf("rebuild agent %d: %v", x, err)
		}
		d := c.client.MetricsSnapshot().Sub(before)
		if !bytes.Equal(fragmentOf(t, c, x, "obj", false), want) {
			t.Errorf("rebuild of agent %d did not restore its fragment", x)
		}
		if d.ReadBursts != 3*rows || d.WriteBursts != rows {
			t.Errorf("rebuild of agent %d over %d rows: %d read bursts and %d write bursts, want %d and %d",
				x, rows, d.ReadBursts, d.WriteBursts, 3*rows, rows)
		}
		if d.Repairs != 0 {
			t.Errorf("rebuild of agent %d reported %d repairs; nothing was reported broken", x, d.Repairs)
		}
	}
	if rep, err := f.Scrub(ScrubOptions{}); err != nil || !rep.Clean() || rep.Rows != rows {
		t.Fatalf("scrub after the rebuilds: %s (%v), want %d clean rows", rep, err, rows)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the rebuilds: err %v, exact %v", err, bytes.Equal(got, data))
	}
}

// TestRebuildUsesPooledScratch: a rebuild's shards and the unit it writes
// back live in the file's reused scratch, so its garbage does not grow
// with the bytes it moves.
func TestRebuildUsesPooledScratch(t *testing.T) {
	const unit, rows = 64 << 10, 64
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: unit})
	f, _ := writeObj(t, c, "obj", rows*3*unit, 29)
	defer f.Close()
	if err := f.Rebuild(1); err != nil { // warm the scratch and the sessions' burst records
		t.Fatalf("rebuild: %v", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	if err := f.Rebuild(1); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - allocated; got >= rows*unit && !raceEnabled {
		t.Errorf("%d bytes allocated rebuilding %d rows, want less than one unit (%d) a row", got, rows, unit)
	}
}

// TestRebuildBreakerAndStragglers: the rebuild's reads follow the
// planner's rules. A survivor whose breaker is open is asked for its unit
// only when fewer than m are otherwise within reach — before the pass or,
// when another survivor dies under it, in the next one — and a survivor
// that is merely slow is waited out: no hedge, no lifecycle event.
func TestRebuildBreakerAndStragglers(t *testing.T) {
	const unit, rows = 2048, 4
	setup := func(t *testing.T) (*cluster, *File) {
		c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: unit, retryTimeout: 10 * time.Millisecond, maxRetries: 5})
		f, _ := writeObj(t, c, "obj", rows*3*unit, 30)
		t.Cleanup(func() { f.Close() })
		return c, f
	}
	tripBreaker := func(c *cluster, agent int) {
		b := &c.client.breakers[agent]
		b.mu.Lock()
		b.state, b.until = BreakerOpen, time.Now().Add(time.Hour)
		b.mu.Unlock()
	}
	readsOf := func(c *cluster, agent int) int64 { return c.client.tel.Load(evBurst[reading], agent) }
	// rebuild scribbles over agent 0's fragment, rebuilds it, and checks
	// that the fragment is back.
	rebuild := func(t *testing.T, c *cluster, f *File) {
		t.Helper()
		want := fragmentOf(t, c, 0, "obj", true)
		if err := f.Rebuild(0); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if !bytes.Equal(fragmentOf(t, c, 0, "obj", false), want) {
			t.Fatal("rebuild did not restore the fragment")
		}
	}

	t.Run("breaker_open_not_asked", func(t *testing.T) {
		c, f := setup(t)
		tripBreaker(c, 2)
		rebuild(t, c, f)
		if n := readsOf(c, 2); n != 0 {
			t.Errorf("agent 2, breaker open, was read %d times with three other survivors in reach", n)
		}
	})
	t.Run("breaker_open_asked_when_short", func(t *testing.T) {
		c, f := setup(t)
		tripBreaker(c, 2)
		f.mu.Lock()
		f.sessions[4].close()
		f.sessions[4] = nil
		f.mu.Unlock()
		rebuild(t, c, f)
		if n := readsOf(c, 2); n != rows {
			t.Errorf("agent 2, breaker open, was read %d times, want once a row (%d): only two others are in reach", n, rows)
		}
	})
	t.Run("breaker_open_asked_after_a_death", func(t *testing.T) {
		c, f := setup(t)
		tripBreaker(c, 2)
		c.agents[4].Close() // found dead by the rebuild's own read
		rebuild(t, c, f)
		if st := c.client.Health()[4].State; st == StateHealthy {
			t.Error("agent 4 died under a rebuild read and is still healthy: failAgent did not fire")
		}
		if n := readsOf(c, 2); n != rows {
			t.Errorf("agent 2, breaker open, was read %d times, want once a row (%d) after agent 4 died", n, rows)
		}
	})
	t.Run("straggler_waited_out", func(t *testing.T) {
		c := newOverloadCluster(t, func(cfg *Config) {
			cfg.HedgeReads = true
			cfg.MaxRetries = 200 // a retry budget that outlasts the straggler
		})
		f, _ := writeObj(t, c, "obj", 12_000, 31)
		defer f.Close()
		c.agents[2].SetReadDelay(150 * time.Millisecond)
		rebuild(t, c, f) // 3+1: every survivor's unit is needed
		c.agents[2].SetReadDelay(0)
		if m := c.client.MetricsSnapshot(); m.Hedges != 0 {
			t.Errorf("the rebuild hedged %d reads", m.Hedges)
		}
		for i := range c.agents {
			if tr := c.client.tel.Load(evHealth, i); tr != 0 {
				t.Errorf("agent %d: %d lifecycle transitions, want 0", i, tr)
			}
		}
	})
}
