package core

import (
	"bytes"
	"testing"

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

	// A clean file scrubs clean.
	bad, err := f.VerifyParity()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(bad) != 0 {
		t.Fatalf("clean file reported bad rows %v", bad)
	}

	// Corrupt one byte of agent 2's fragment in row 3 (bit rot).
	l := c.client.Layout()
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

	bad, err = f.VerifyParity()
	if err != nil {
		t.Fatalf("verify after corruption: %v", err)
	}
	if len(bad) != 1 || bad[0] != row {
		t.Fatalf("bad rows = %v, want [%d]", bad, row)
	}

	// If agent 2 held the parity unit of that row, RepairRow restores
	// consistency from the data; otherwise recompute parity to match
	// the (now-corrupt) data — either way the row scrubs clean after.
	if err := f.RepairRow(row); err != nil {
		t.Fatalf("repair: %v", err)
	}
	bad, err = f.VerifyParity()
	if err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	if len(bad) != 0 {
		t.Fatalf("rows still bad after repair: %v", bad)
	}
	_ = l
}

func TestScrubRequiresParity(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3})
	f, _ := c.client.Open("noparity", OpenFlags{Create: true})
	defer f.Close()
	if _, err := f.VerifyParity(); err == nil {
		t.Fatal("scrub without parity succeeded")
	}
}

func TestParityRequiresThreeAgents(t *testing.T) {
	n := memnetTestHost(t)
	_, err := Dial(Config{Host: n, Agents: []string{"a:1", "b:1"}, Parity: true})
	if err == nil {
		t.Fatal("expected error for parity with 2 agents")
	}
}
