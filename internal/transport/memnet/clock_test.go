package memnet

import (
	"fmt"
	"testing"
	"time"
)

func TestNowAdvancesWithScale(t *testing.T) {
	n := New(100)
	start := n.Now()
	time.Sleep(5 * time.Millisecond)
	modeled := n.Now() - start
	// 5ms real at scale 100 ≈ 500ms modeled (generous bounds for CI).
	if modeled < 300*time.Millisecond || modeled > 2*time.Second {
		t.Fatalf("modeled elapsed = %v, want ≈500ms", modeled)
	}
}

func TestSleeperChargesModeledTime(t *testing.T) {
	n := New(50)
	sleep := n.Sleeper()
	start := n.Now()
	sleep(200 * time.Millisecond) // modeled
	elapsed := n.Now() - start
	if elapsed < 190*time.Millisecond || elapsed > 400*time.Millisecond {
		t.Fatalf("modeled sleep = %v, want ≈200ms", elapsed)
	}
}

func TestScaleDefaultsToOne(t *testing.T) {
	if New(0).Scale() != 1 || New(-3).Scale() != 1 {
		t.Fatal("non-positive scale not defaulted")
	}
	if New(25).Scale() != 25 {
		t.Fatal("scale not stored")
	}
}

func TestSegmentStatsAccumulate(t *testing.T) {
	n := New(1)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 1e9, FrameOverhead: 46})
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{}, seg)
	ca, _ := a.Listen("1")
	cb, _ := b.Listen("1")
	const frames = 20
	for i := 0; i < frames; i++ {
		if err := ca.WriteTo(make([]byte, 1000), "b:1"); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1500)
	for i := 0; i < frames; i++ {
		cb.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, err := cb.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	}
	st := seg.Stats()
	if st.Frames != frames || st.Bytes != frames*1000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyTime <= 0 {
		t.Fatal("no busy time recorded")
	}
}

func TestHostCloseDropsTraffic(t *testing.T) {
	n := New(1)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 1e9})
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{}, seg)
	ca, _ := a.Listen("1")
	cb, _ := b.Listen("1")
	b.Close()
	// Reads on the closed host's conn fail.
	if _, _, err := cb.ReadFrom(make([]byte, 8)); err == nil {
		t.Fatal("read on closed host succeeded")
	}
	// Sends toward it do not wedge the sender.
	for i := 0; i < 5; i++ {
		if err := ca.WriteTo([]byte("x"), "b:1"); err != nil {
			t.Fatalf("send to closed host errored hard: %v", err)
		}
	}
	// Double close is safe.
	b.Close()
}

func TestListenAfterHostClose(t *testing.T) {
	n := New(1)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 1e9})
	a := n.MustHost("a", HostConfig{}, seg)
	a.Close()
	if _, err := a.Listen("0"); err == nil {
		t.Fatal("listen on closed host succeeded")
	}
}

func TestModeledClockStopsAtAHold(t *testing.T) {
	n := NewModeled(100)
	at := int64(n.Now() + time.Millisecond) // 10µs of wall time away
	n.hold(at)
	time.Sleep(5 * time.Millisecond) // ≥ 500ms modeled, were nothing held
	held := time.Now()
	if got := int64(n.Now()); got != at {
		t.Fatalf("held clock reads %v, want it stopped at %v", time.Duration(got), time.Duration(at))
	}
	n.release(at)
	got := int64(n.Now())
	// The clock resumes from the hold: the held spell never counts.
	if limit := at + int64(float64(time.Since(held))*n.Scale()); got < at || got > limit {
		t.Fatalf("released clock reads %v, want within [%v, %v]", time.Duration(got), time.Duration(at), time.Duration(limit))
	}
}

func TestModeledClockNeverRunsBackward(t *testing.T) {
	n := NewModeled(100)
	time.Sleep(time.Millisecond)
	before := n.Now()
	n.hold(0) // an instant long past, as a hand-off placed late would be
	if got := n.Now(); got != before {
		t.Fatalf("clock read %v before the hold and %v under it, want it stopped where it was", before, got)
	}
	n.release(0)
	if got := n.Now(); got < before {
		t.Fatalf("clock ran backward from %v to %v", before, got)
	}
}

func TestUnheldClockIgnoresHolds(t *testing.T) {
	n := New(100)
	at := int64(n.Now())
	n.hold(at)
	defer n.release(at)
	time.Sleep(time.Millisecond)
	if got := int64(n.Now()); got <= at {
		t.Fatalf("New's clock stopped at a hold (%v), want plain scaled wall time", time.Duration(got))
	}
}

// waitQuiet fails the test unless the clock has no hold and no parked
// sleeper left, and its pacer has exited.
func waitQuiet(t *testing.T, n *Net) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n.clock.mu.Lock()
		holds, timers, pacing := len(n.holds), len(n.timers), n.pacing
		n.clock.mu.Unlock()
		if holds == 0 && timers == 0 && !pacing {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("clock not quiet: %d holds, %d parked sleepers, pacing %v", holds, timers, pacing)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestModeledSleepersWakeAtTheirDeadlines(t *testing.T) {
	n := NewModeled(50)
	const sleepers = 8
	start := n.Now()
	woke := make(chan error, sleepers)
	for i := 0; i < sleepers; i++ {
		d := time.Duration(sleepers-i) * 10 * time.Millisecond // parked, latest first
		go func() {
			n.sleepUntil(start + d)
			if got := n.Now(); got < start+d {
				woke <- fmt.Errorf("sleeper for %v woke at %v", d, got-start)
				return
			}
			woke <- nil
		}()
	}
	for i := 0; i < sleepers; i++ {
		select {
		case err := <-woke:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked sleepers never woke")
		}
	}
	waitQuiet(t, n)
}

func TestModeledHandOffReleasesItsHolds(t *testing.T) {
	n := NewModeled(10)
	seg := n.NewSegment("s", SegmentConfig{BandwidthBps: 1e7, FrameOverhead: 46, Latency: time.Millisecond})
	a := n.MustHost("a", HostConfig{SendCPU: time.Millisecond}, seg)
	b := n.MustHost("b", HostConfig{RecvCPU: time.Millisecond}, seg)
	ca, _ := a.Listen("1")
	cb, _ := b.Listen("1")
	got := make(chan error, 1)
	go func() {
		cb.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, _, err := cb.ReadFrom(make([]byte, 64))
		got <- err
	}()
	// Send only once the reader is parked, so the frame is handed to it.
	for parked := false; !parked; {
		c := cb.(*conn)
		c.mu.Lock()
		parked = c.waiting == 1
		c.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	if err := ca.WriteTo([]byte("ping"), "b:1"); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("read: %v", err)
	}
	waitQuiet(t, n)
}
