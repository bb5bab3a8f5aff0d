package memnet

import (
	"strings"
	"sync"
	"testing"

	"swift/internal/obs"
)

// TestContentionDeferrals: two hosts transmitting concurrently on a slow
// bus must serialize, and the loser's wait must be counted as a deferral.
func TestContentionDeferrals(t *testing.T) {
	// Real time: each sender holds the bus for 64 ms, so the other is
	// certain to be scheduled meanwhile. At scale 1000 that window was
	// 64 µs and the test failed about one run in a hundred.
	n := New(1)
	// 1 Mbit/s: a 1000-byte frame occupies the bus ~8ms modeled.
	seg := n.NewSegment("bus", SegmentConfig{BandwidthBps: 1e6, FrameOverhead: 46})
	a := n.MustHost("a", HostConfig{}, seg)
	b := n.MustHost("b", HostConfig{}, seg)
	dst := n.MustHost("dst", HostConfig{}, seg)
	dc, err := dst.Listen("9")
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	// Each sender pushes several back-to-back frames; with two senders
	// interleaving on one bus at least one transmission must start while
	// the medium is busy, whatever the goroutine schedule.
	const framesPerSender = 8
	payload := make([]byte, 1000)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, h := range []*Host{a, b} {
		conn, err := h.Listen("0")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func(c interface {
			WriteTo([]byte, string) error
		}) {
			defer wg.Done()
			<-start
			for i := 0; i < framesPerSender; i++ {
				if err := c.WriteTo(payload, "dst:9"); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(conn)
	}
	close(start)
	wg.Wait()

	st := seg.Stats()
	if st.Frames != 2*framesPerSender {
		t.Fatalf("frames = %d, want %d", st.Frames, 2*framesPerSender)
	}
	if st.Deferrals == 0 {
		t.Fatal("deferrals = 0, want > 0 (two concurrent senders, one bus)")
	}
	if st.DeferredTime <= 0 {
		t.Fatalf("deferred time = %v, want > 0", st.DeferredTime)
	}
	if u := seg.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v, want (0,1]", u)
	}
}

// TestSegmentRegister: the export-time series reflect the live counters.
func TestSegmentRegister(t *testing.T) {
	n := New(1000)
	seg := n.NewSegment("bus", SegmentConfig{BandwidthBps: 1e9, FrameOverhead: 46})
	a := n.MustHost("a", HostConfig{}, seg)
	dst := n.MustHost("dst", HostConfig{}, seg)
	dc, err := dst.Listen("9")
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	conn, err := a.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	reg := obs.NewRegistry()
	seg.Register(reg)
	a.Register(reg)
	dst.Register(reg)

	if err := conn.WriteTo(make([]byte, 100), "dst:9"); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`swift_net_frames_total{segment="bus"} 1`,
		`swift_net_bytes_total{segment="bus"} 100`,
		"swift_net_utilization",
		`swift_net_host_drops_total{host="a"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
}
