package memnet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"swift/internal/transport"
)

// TestDatagramAllocs pins the transport rung: once a conn pair has
// exchanged a few datagrams, a WriteTo+ReadFrom pair allocates nothing —
// not the frame (pooled), not the source address (fixed at Listen), not a
// deadline timer (kept on the conn between blocking reads) — and neither
// does a WriteSegments+ReadSegments pair moving a run of seven jumbo
// datagrams as one frame.
func TestDatagramAllocs(t *testing.T) {
	n := New(1)
	defer n.Close()
	seg := n.NewSegment("bus", SegmentConfig{BandwidthBps: 1e15})
	src, _ := n.MustHost("a", HostConfig{}, seg).Listen("1")
	dst, _ := n.MustHost("b", HostConfig{}, seg).Listen("2")
	payload := make([]byte, 1400)
	in := make([]byte, 2048)

	pair := func() {
		if err := src.WriteTo(payload, "b:2"); err != nil {
			t.Fatal(err)
		}
		// The frame crosses the receive loop's goroutine, so this read
		// blocks more often than not: the timer path is measured too.
		dst.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, from, err := dst.ReadFrom(in); err != nil || n != len(payload) || from != "a:1" {
			t.Fatalf("read %d bytes from %q: %v", n, from, err)
		}
	}
	if allocs := testing.AllocsPerRun(500, pair); allocs > 1 {
		t.Fatalf("%v allocations per WriteTo+ReadFrom pair, want <= 1 (target 0)", allocs)
	} else if allocs > 0 {
		t.Logf("%v allocations per WriteTo+ReadFrom pair (target 0)", allocs)
	}

	jseg := n.NewSegment("jumbo", SegmentConfig{BandwidthBps: 1e15, MTU: 9000})
	rsrc, _ := n.MustHost("c", HostConfig{}, jseg).Listen("1")
	rdst, _ := n.MustHost("d", HostConfig{}, jseg).Listen("2")
	run := make([]byte, 7*jumbo)
	rin := make([]byte, transport.RunBytes)
	runPair := func() {
		if err := transport.WriteSegments(rsrc, run, jumbo, "d:2"); err != nil {
			t.Fatal(err)
		}
		rdst.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, seg, from, err := transport.ReadSegments(rdst, rin); err != nil || n != len(run) || seg != jumbo || from != "c:1" {
			t.Fatalf("read %d bytes of %d-byte datagrams from %q: %v", n, seg, from, err)
		}
	}
	allocs := testing.AllocsPerRun(500, runPair)
	if raceEnabled && allocs > 1 {
		t.Fatalf("%v allocations per WriteSegments+ReadSegments pair under the race detector, want <= 1", allocs)
	} else if !raceEnabled && allocs > 0 {
		t.Fatalf("%v allocations per WriteSegments+ReadSegments pair, want 0", allocs)
	}
}

// TestQueuedFrameNotRecycled: a frame sitting in one reader's queue must
// not be handed to another sender by the pool. One conn lets its
// datagrams queue while two other pairs churn the pool; what it finally
// reads must be exactly what was sent to it. Run under -race, a shared
// frame also shows up as a data race.
func TestQueuedFrameNotRecycled(t *testing.T) {
	n := New(1)
	defer n.Close()
	seg := n.NewSegment("bus", SegmentConfig{BandwidthBps: 1e15})
	hosts := []*Host{
		n.MustHost("a", HostConfig{}, seg),
		n.MustHost("b", HostConfig{}, seg),
		n.MustHost("c", HostConfig{}, seg),
	}
	slow, _ := hosts[2].Listen("9")
	const queued = 64
	mark := func(i int) []byte { return bytes.Repeat([]byte{byte(0x80 | i)}, 700) }

	// Park the marked datagrams in slow's queue.
	sender, _ := hosts[0].Listen("0")
	for i := 0; i < queued; i++ {
		if err := sender.WriteTo(mark(i), "c:9"); err != nil {
			t.Fatal(err)
		}
	}

	// Churn: two busy pairs take and return frames the whole time.
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		tx, _ := hosts[p].Listen("0")
		rx, _ := hosts[1-p].Listen("100")
		to := rx.LocalAddr()
		fillByte := byte(p + 1)
		wg.Add(2)
		go func() {
			defer wg.Done()
			b := bytes.Repeat([]byte{fillByte}, 1400)
			for i := 0; i < 2000; i++ {
				if err := tx.WriteTo(b, to); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			in := make([]byte, 2048)
			for {
				rx.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				n, _, err := rx.ReadFrom(in)
				if err != nil {
					return // the sender is done and the queue has drained
				}
				for _, c := range in[:n] {
					if c != fillByte {
						t.Errorf("churn pair read a byte %#x of someone else's frame", c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	in := make([]byte, 2048)
	for i := 0; i < queued; i++ {
		slow.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := slow.ReadFrom(in)
		if err != nil {
			t.Fatalf("queued datagram %d: %v", i, err)
		}
		if !bytes.Equal(in[:n], mark(i)) {
			t.Fatalf("queued datagram %d was overwritten while it waited", i)
		}
	}
}
