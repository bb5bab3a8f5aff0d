package memnet

import (
	"sync"
	"testing"
	"time"

	"swift/internal/transport"
)

func fastSeg(n *Net, name string) *Segment {
	return n.NewSegment(name, SegmentConfig{BandwidthBps: 1e10, FrameOverhead: 46})
}

func TestDeliverReceive(t *testing.T) {
	n := New(1)
	seg := fastSeg(n, "s")
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{}, seg)
	ca, _ := a.Listen("100")
	cb, _ := b.Listen("200")

	if err := ca.WriteTo([]byte("ping"), "b:200"); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 64)
	cb.SetReadDeadline(time.Now().Add(2 * time.Second))
	rn, from, err := cb.ReadFrom(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(buf[:rn]) != "ping" || from != "a:100" {
		t.Fatalf("got %q from %q", buf[:rn], from)
	}
}

func TestReadTimeout(t *testing.T) {
	n := New(1)
	seg := fastSeg(n, "s")
	a := n.MustHost("a", HostConfig{}, seg)
	c, _ := a.Listen("1")
	c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	_, _, err := c.ReadFrom(make([]byte, 16))
	if !transport.IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestCloseUnblocksRead(t *testing.T) {
	n := New(1)
	seg := fastSeg(n, "s")
	a := n.MustHost("a", HostConfig{}, seg)
	c, _ := a.Listen("1")
	done := make(chan error, 1)
	go func() {
		_, _, err := c.ReadFrom(make([]byte, 16))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != transport.ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not unblock")
	}
}

func TestNoRouteAcrossSegments(t *testing.T) {
	n := New(1)
	s1 := fastSeg(n, "s1")
	s2 := fastSeg(n, "s2")
	a := n.MustHost("a", HostConfig{}, s1)
	n.MustHost("b", HostConfig{}, s2)
	c, _ := a.Listen("1")
	if err := c.WriteTo([]byte("x"), "b:1"); err != transport.ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if err := c.WriteTo([]byte("x"), "nosuch:1"); err != transport.ErrNoRoute {
		t.Fatalf("unknown host err = %v", err)
	}
}

func TestMultiHomedRouting(t *testing.T) {
	// A host on two segments reaches peers on either.
	n := New(1)
	s1 := fastSeg(n, "s1")
	s2 := fastSeg(n, "s2")
	client := n.MustHost("client", HostConfig{}, s1, s2)
	p1 := n.MustHost("p1", HostConfig{}, s1)
	p2 := n.MustHost("p2", HostConfig{}, s2)
	cc, _ := client.Listen("1")
	c1, _ := p1.Listen("1")
	c2, _ := p2.Listen("1")

	cc.WriteTo([]byte("one"), "p1:1")
	cc.WriteTo([]byte("two"), "p2:1")
	buf := make([]byte, 16)
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if rn, _, err := c1.ReadFrom(buf); err != nil || string(buf[:rn]) != "one" {
		t.Fatalf("p1: %v %q", err, buf[:rn])
	}
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if rn, _, err := c2.ReadFrom(buf); err != nil || string(buf[:rn]) != "two" {
		t.Fatalf("p2: %v %q", err, buf[:rn])
	}
}

func TestMTUEnforced(t *testing.T) {
	n := New(1)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 1e10, MTU: 100})
	a := n.MustHost("a", HostConfig{}, seg)
	n.MustHost("b", HostConfig{}, seg)
	c, _ := a.Listen("1")
	if err := c.WriteTo(make([]byte, 101), "b:1"); err != transport.ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestMediumReportsSegment checks what a conn says of its medium: the
// segment's MTU (1500 unless configured, the smallest for a multi-homed
// host) and the port queue's capacity in datagrams of that size.
func TestMediumReportsSegment(t *testing.T) {
	n := New(1)
	ether := fastSeg(n, "ether")
	jumbo := n.NewSegment("jumbo", SegmentConfig{BandwidthBps: 1e10, MTU: 9000})
	for _, c := range []struct {
		name string
		cfg  HostConfig
		segs []*Segment
		want transport.Medium
	}{
		{"default", HostConfig{}, []*Segment{ether}, transport.Medium{MaxDatagram: 1500, RecvBuffer: 256 * 1500}},
		{"jumbo", HostConfig{}, []*Segment{jumbo}, transport.Medium{MaxDatagram: 9000, RecvBuffer: 256 * 9000}},
		{"both", HostConfig{PortQueue: 8}, []*Segment{jumbo, ether}, transport.Medium{MaxDatagram: 1500, RecvBuffer: 8 * 1500}},
	} {
		conn, err := n.MustHost(c.name, c.cfg, c.segs...).Listen("1")
		if err != nil {
			t.Fatal(err)
		}
		if got := transport.MediumOf(conn); got != c.want {
			t.Errorf("%s: medium %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestLossDropsFrames(t *testing.T) {
	n := New(1)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 1e10, LossRate: 1.0, Seed: 1})
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{}, seg)
	ca, _ := a.Listen("1")
	cb, _ := b.Listen("1")
	for i := 0; i < 10; i++ {
		ca.WriteTo([]byte("x"), "b:1")
	}
	cb.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, _, err := cb.ReadFrom(make([]byte, 8)); !transport.IsTimeout(err) {
		t.Fatalf("err = %v, want timeout (all frames lost)", err)
	}
	if st := seg.Stats(); st.Lost != 10 {
		t.Fatalf("lost = %d, want 10", st.Lost)
	}
}

func TestBandwidthThrottling(t *testing.T) {
	// 1000-byte payloads, zero overhead, 8 Mb/s => 1ms per frame.
	// 50 frames should take ≈50ms of wall-clock at scale 1.
	n := New(1)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 8e6})
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{}, seg)
	ca, _ := a.Listen("1")
	cb, _ := b.Listen("1")

	start := time.Now()
	go func() {
		for i := 0; i < 50; i++ {
			ca.WriteTo(make([]byte, 1000), "b:1")
		}
	}()
	buf := make([]byte, 1500)
	for i := 0; i < 50; i++ {
		cb.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := cb.ReadFrom(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 40*time.Millisecond || elapsed > 250*time.Millisecond {
		t.Fatalf("50 frames took %v, want ≈50ms", elapsed)
	}
	rate := 50 * 1000 / elapsed.Seconds()
	if rate > 8e6/8*1.05 {
		t.Fatalf("measured %.0f B/s exceeds medium capacity", rate)
	}
}

func TestTimeScaleSpeedsUpWallClock(t *testing.T) {
	// Same transfer at scale 20 should take ≈1/20 the wall-clock.
	n := New(20)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 8e6})
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{}, seg)
	ca, _ := a.Listen("1")
	cb, _ := b.Listen("1")

	start := time.Now()
	modelStart := n.Now()
	go func() {
		for i := 0; i < 100; i++ {
			ca.WriteTo(make([]byte, 1000), "b:1")
		}
	}()
	buf := make([]byte, 1500)
	for i := 0; i < 100; i++ {
		cb.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := cb.ReadFrom(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	real := time.Since(start)
	modeled := n.Now() - modelStart
	if real > 60*time.Millisecond {
		t.Fatalf("scaled run took %v wall-clock, want ≈5-10ms", real)
	}
	// Modeled time is ≈100 frames × 1ms.
	if modeled < 90*time.Millisecond || modeled > 200*time.Millisecond {
		t.Fatalf("modeled elapsed = %v, want ≈100ms", modeled)
	}
}

func TestHostCPUCostSerializes(t *testing.T) {
	// A receiver with 1ms per-packet CPU caps delivery at 1000 pkt/s of
	// modeled time even though the wire is fast.
	n := New(50)
	seg := fastSeg(n, "s")
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{RecvCPU: time.Millisecond}, seg)
	ca, _ := a.Listen("1")
	cb, _ := b.Listen("1")

	const frames = 100
	go func() {
		for i := 0; i < frames; i++ {
			ca.WriteTo(make([]byte, 100), "b:1")
		}
	}()
	buf := make([]byte, 256)
	start := n.Now()
	for i := 0; i < frames; i++ {
		cb.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := cb.ReadFrom(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	modeled := n.Now() - start
	if modeled < 95*time.Millisecond {
		t.Fatalf("modeled %v, want >= ~100ms of receive CPU", modeled)
	}
}

func TestPortQueueOverflowDrops(t *testing.T) {
	n := New(1)
	seg := fastSeg(n, "s")
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{PortQueue: 4}, seg)
	ca, _ := a.Listen("1")
	b.Listen("1") // nobody reads
	for i := 0; i < 50; i++ {
		ca.WriteTo([]byte("x"), "b:1")
	}
	// Give the receive loop time to drain ingress into the port queue.
	deadline := time.Now().Add(2 * time.Second)
	for b.Drops() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Drops() == 0 {
		t.Fatal("no drops despite tiny port queue")
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	n := New(1)
	seg := fastSeg(n, "s")
	a := n.MustHost("a", HostConfig{}, seg)
	seen := map[string]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := a.Listen("0")
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if seen[c.LocalAddr()] {
				t.Errorf("duplicate ephemeral %s", c.LocalAddr())
			}
			seen[c.LocalAddr()] = true
		}()
	}
	wg.Wait()
}

func TestDuplicatePortRejected(t *testing.T) {
	n := New(1)
	seg := fastSeg(n, "s")
	a := n.MustHost("a", HostConfig{}, seg)
	if _, err := a.Listen("7"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen("7"); err == nil {
		t.Fatal("duplicate port accepted")
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	n := New(1)
	seg := fastSeg(n, "s")
	n.MustHost("a", HostConfig{}, seg)
	if _, err := n.NewHost("a", HostConfig{}, seg); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestSegmentCapacityMatchesPaper(t *testing.T) {
	// A 10 Mb/s Ethernet with our framing overhead has ≈1.12 MB/s
	// effective capacity for 1400-byte datagrams — the paper's measured
	// maximum.
	n := New(1)
	seg := n.NewSegment("ether", SegmentConfig{BandwidthBps: 10e6, FrameOverhead: 66})
	capacity := seg.Capacity(1400)
	if capacity < 1.10e6 || capacity > 1.22e6 {
		t.Fatalf("capacity = %.0f B/s, want ≈1.12-1.19 MB/s", capacity)
	}
}
