package memnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"swift/internal/transport"
)

// jumbo is an 8 KiB data packet with its header and trailer, the datagram
// size a session agrees on over a large MTU.
const jumbo = 8228

// runNet is a sender conn a:1 and a receiver conn b:2 on one segment.
type runNet struct {
	seg      *Segment
	src, dst *Host
	a, b     transport.PacketConn
}

func newRunNet(t *testing.T, seg SegmentConfig, src, dst HostConfig) *runNet {
	t.Helper()
	n := New(1)
	t.Cleanup(n.Close)
	r := &runNet{seg: n.NewSegment("bus", seg)}
	r.src = n.MustHost("a", src, r.seg)
	r.dst = n.MustHost("b", dst, r.seg)
	r.a, _ = r.src.Listen("1")
	r.b, _ = r.dst.Listen("2")
	return r
}

// unthrottled is a segment the model charges nothing: the benchmark's.
var unthrottled = SegmentConfig{BandwidthBps: 1e15, MTU: 9000}

// makeRun lays count datagrams of seg bytes end to end, datagram i filled
// with byte i+1; a positive last makes the final datagram that long.
func makeRun(count, seg, last int) []byte {
	var b []byte
	for i := 0; i < count; i++ {
		size := seg
		if i == count-1 && last > 0 {
			size = last
		}
		b = append(b, bytes.Repeat([]byte{byte(i + 1)}, size)...)
	}
	return b
}

// splitRun cuts a run into its datagrams.
func splitRun(b []byte, seg int) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		var d []byte
		d, b = transport.NextSegment(b, seg)
		out = append(out, d)
	}
	return out
}

// readRun is one ReadSegments with a deadline.
func readRun(t *testing.T, c transport.PacketConn, p []byte) (data []byte, seg int, from string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, seg, from, err := c.(transport.SegmentReader).ReadSegments(p)
	if err != nil {
		t.Fatalf("ReadSegments: %v", err)
	}
	return bytes.Clone(p[:n]), seg, from
}

// readOne is one ReadFrom with a deadline.
func readOne(t *testing.T, c transport.PacketConn) (data []byte, from string) {
	t.Helper()
	p := make([]byte, 2*jumbo)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, from, err := c.ReadFrom(p)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return bytes.Clone(p[:n]), from
}

// TestRunArrivesWhole: a run crosses an unthrottled segment as one frame
// and arrives in one ReadSegments with its seg and source, a short last
// datagram included; a run longer than one send carries arrives in runs
// of at most MaxRun bytes and MaxSegments datagrams. The segment counts
// datagrams, not frames.
func TestRunArrivesWhole(t *testing.T) {
	for _, tc := range []struct {
		count, seg, last int
		runs             []int // datagrams per arriving run
	}{
		{7, jumbo, 0, []int{7}},
		{7, jumbo, 100, []int{7}},
		{20, jumbo, 0, []int{7, 7, 6}},
		{130, 200, 0, []int{64, 64, 2}},
	} {
		t.Run(fmt.Sprintf("%dx%d+%d", tc.count, tc.seg, tc.last), func(t *testing.T) {
			r := newRunNet(t, unthrottled, HostConfig{}, HostConfig{})
			b := makeRun(tc.count, tc.seg, tc.last)
			if err := transport.WriteSegments(r.a, b, tc.seg, "b:2"); err != nil {
				t.Fatal(err)
			}
			var got []byte
			buf := make([]byte, transport.RunBytes)
			for i, want := range tc.runs {
				data, seg, from := readRun(t, r.b, buf)
				if seg != tc.seg || from != "a:1" || len(splitRun(data, seg)) != want {
					t.Fatalf("run %d: %d bytes of %d-byte datagrams from %q; want %d datagrams of %d from a:1",
						i, len(data), seg, from, want, tc.seg)
				}
				got = append(got, data...)
			}
			if !bytes.Equal(got, b) {
				t.Fatal("the runs did not carry the datagrams sent")
			}
			if st := r.seg.Stats(); st.Frames != int64(tc.count) || st.Bytes != int64(len(b)) {
				t.Errorf("segment counted %d frames and %d bytes, want %d and %d", st.Frames, st.Bytes, tc.count, len(b))
			}
		})
	}
}

// TestRunHandedOutByDatagram: ReadFrom, and ReadSegments with a buffer
// shorter than RunBytes, hand a run out one datagram per call, in order
// and with the run's source, and then go on to the next queued frame; a
// ReadSegments with room for a run takes what is left of a run begun.
func TestRunHandedOutByDatagram(t *testing.T) {
	r := newRunNet(t, unthrottled, HostConfig{}, HostConfig{})
	first, second := makeRun(7, jumbo, 100), makeRun(3, 1000, 0)
	if err := transport.WriteSegments(r.a, first, jumbo, "b:2"); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteSegments(r.a, second, 1000, "b:2"); err != nil {
		t.Fatal(err)
	}
	want := append(splitRun(first, jumbo), splitRun(second, 1000)...)
	short := make([]byte, jumbo)
	check := func(i int, data []byte, from string) {
		t.Helper()
		if !bytes.Equal(data, want[i]) || from != "a:1" {
			t.Fatalf("datagram %d: %d bytes of %d from %q, want %d bytes of %d from a:1",
				i, len(data), data[0], from, len(want[i]), want[i][0])
		}
	}
	for i := 0; i < 3; i++ {
		data, from := readOne(t, r.b)
		check(i, data, from)
	}
	for i := 3; i < 5; i++ {
		data, seg, from := readRun(t, r.b, short)
		if seg != len(data) {
			t.Fatalf("datagram %d: a short buffer got %d bytes as datagrams of %d", i, len(data), seg)
		}
		check(i, data, from)
	}
	// The last two of the first run, short one included, whole.
	rest, seg, from := readRun(t, r.b, make([]byte, transport.RunBytes))
	if seg != jumbo || !bytes.Equal(rest, first[5*jumbo:]) || from != "a:1" {
		t.Fatalf("the rest of the run: %d bytes of %d-byte datagrams from %q", len(rest), seg, from)
	}
	for i := 7; i < len(want); i++ {
		data, from := readOne(t, r.b)
		check(i, data, from)
	}
}

// TestCloseReleasesHeldRun: a conn that has handed out half a run gives
// the frame back when it closes, and reads after that fail.
func TestCloseReleasesHeldRun(t *testing.T) {
	for _, closeHost := range []bool{false, true} {
		r := newRunNet(t, unthrottled, HostConfig{}, HostConfig{})
		if err := transport.WriteSegments(r.a, makeRun(4, 1000, 0), 1000, "b:2"); err != nil {
			t.Fatal(err)
		}
		readOne(t, r.b)
		readOne(t, r.b)
		c := r.b.(*conn)
		c.rmu.Lock()
		held := c.held.frame != nil && c.off == 2000
		c.rmu.Unlock()
		if !held {
			t.Fatal("the conn holds no half-read run")
		}
		if closeHost {
			r.dst.Close()
		} else {
			r.b.Close()
		}
		c.rmu.Lock()
		held = c.held.frame != nil
		c.rmu.Unlock()
		if held {
			t.Errorf("close host %v: the conn still holds its frame", closeHost)
		}
		if _, _, err := r.b.ReadFrom(make([]byte, 1000)); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("close host %v: read after close: %v", closeHost, err)
		}
	}
}

// TestRunDropCountsDatagrams: a run takes one port-queue slot, and a run
// the full queue refuses adds its datagrams to Drops.
func TestRunDropCountsDatagrams(t *testing.T) {
	r := newRunNet(t, unthrottled, HostConfig{}, HostConfig{PortQueue: 1})
	for i := 0; i < 2; i++ { // the first run fills the queue, nobody reads
		if err := transport.WriteSegments(r.a, makeRun(7, 1000, 0), 1000, "b:2"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.dst.Drops() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := r.dst.Drops(); d != 7 {
		t.Fatalf("%d drops, want the 7 datagrams of the refused run", d)
	}
	data, _, _ := readRun(t, r.b, make([]byte, transport.RunBytes))
	if len(data) != 7000 {
		t.Fatalf("the queued run held %d bytes, want 7000", len(data))
	}
}

// arrival is one datagram as the receiver saw it: which datagram of the
// run (every byte carries its index), whether a byte was flipped, and how
// many datagrams the receive that returned it held.
type arrival struct {
	index     int
	corrupted bool
	run       int
}

// receiveAll drains c with ReadSegments until it stays quiet for quiet.
func receiveAll(t *testing.T, c transport.PacketConn, quiet time.Duration) []arrival {
	t.Helper()
	var out []arrival
	buf := make([]byte, transport.RunBytes)
	for {
		c.SetReadDeadline(time.Now().Add(quiet))
		n, seg, _, err := c.(transport.SegmentReader).ReadSegments(buf)
		if transport.IsTimeout(err) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		ds := splitRun(buf[:n], seg)
		for _, d := range ds {
			// One byte at most is flipped: two of the first three agree.
			idx := d[0]
			if d[1] == d[2] {
				idx = d[1]
			}
			out = append(out, arrival{int(idx), bytes.Count(d, []byte{idx}) != len(d), len(ds)})
		}
	}
}

// TestRunKeepsTheModel sends the same datagrams once as one WriteSegments
// and once as a WriteTo each. On a seeded unthrottled segment with loss
// and corruption, the same datagrams are lost and corrupted and the
// segment counts the same. Where the model charges time — a 10 Mb/s
// segment, with and without a send cost, a send or receive cost alone, a
// latency, an extra latency — the run goes datagram by datagram: the
// segment's counters, bus time and deferrals included, and the order of
// arrival are the same, and every datagram arrives alone.
func TestRunKeepsTheModel(t *testing.T) {
	const count, size = 64, 1000
	b := makeRun(count, size, 0)
	send := func(t *testing.T, r *runNet, whole bool) {
		t.Helper()
		if whole {
			if err := transport.WriteSegments(r.a, b, size, "b:2"); err != nil {
				t.Fatal(err)
			}
			return
		}
		for _, d := range splitRun(b, size) {
			if err := r.a.WriteTo(d, "b:2"); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("faults", func(t *testing.T) {
		cfg := unthrottled
		cfg.LossRate, cfg.Seed = 0.15, 42
		var got [2][]arrival
		var stats [2]Stats
		for i, whole := range []bool{true, false} {
			r := newRunNet(t, cfg, HostConfig{}, HostConfig{})
			r.seg.SetCorruptRate(0.15)
			r.seg.SetLinkLoss("a", "b", 0.1)
			send(t, r, whole)
			got[i], stats[i] = receiveAll(t, r.b, 100*time.Millisecond), r.seg.Stats()
		}
		runs, lost, corrupted := 0, count-len(got[0]), 0
		for _, a := range got[0] {
			if a.corrupted {
				corrupted++
			}
			if a.run > 1 {
				runs++
			}
		}
		if lost == 0 || corrupted == 0 || runs == 0 {
			t.Fatalf("seed gives %d lost, %d corrupted, %d in runs: the drill needs each", lost, corrupted, runs)
		}
		if len(got[0]) != len(got[1]) {
			t.Fatalf("%d datagrams arrived from the run, %d from single sends", len(got[0]), len(got[1]))
		}
		for i := range got[0] {
			if a, w := got[0][i], got[1][i]; a.index != w.index || a.corrupted != w.corrupted {
				t.Fatalf("arrival %d: datagram %d corrupted %v from the run, %d corrupted %v from single sends",
					i, a.index, a.corrupted, w.index, w.corrupted)
			}
		}
		if stats[0] != stats[1] {
			t.Errorf("segment stats %+v from the run, %+v from single sends", stats[0], stats[1])
		}
		t.Logf("%d lost, %d corrupted, %d delivered in runs; %+v", lost, corrupted, runs, stats[0])
	})

	for _, tc := range []struct {
		name     string
		seg      SegmentConfig
		src, dst HostConfig
		extra    time.Duration // SetExtraLatency
	}{
		{"10 Mb/s with a send cost", SegmentConfig{BandwidthBps: 10e6, FrameOverhead: 46}, HostConfig{SendCPU: 100 * time.Microsecond}, HostConfig{}, 0},
		{"10 Mb/s", SegmentConfig{BandwidthBps: 10e6, FrameOverhead: 46}, HostConfig{}, HostConfig{}, 0},
		{"send cost", unthrottled, HostConfig{SendCPU: 20 * time.Microsecond}, HostConfig{}, 0},
		{"receive cost", unthrottled, HostConfig{}, HostConfig{RecvCPU: 20 * time.Microsecond}, 0},
		{"latency", SegmentConfig{BandwidthBps: 1e15, Latency: time.Millisecond}, HostConfig{}, HostConfig{}, 0},
		{"extra latency", unthrottled, HostConfig{}, HostConfig{}, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][]arrival
			var stats [2]Stats
			for i, whole := range []bool{true, false} {
				r := newRunNet(t, tc.seg, tc.src, tc.dst)
				r.seg.SetExtraLatency(tc.extra)
				send(t, r, whole)
				got[i], stats[i] = receiveAll(t, r.b, 100*time.Millisecond), r.seg.Stats()
			}
			if stats[0] != stats[1] {
				t.Errorf("segment stats %+v from the run, %+v from single sends", stats[0], stats[1])
			}
			if len(got[0]) != count || len(got[1]) != count {
				t.Fatalf("%d and %d of %d datagrams arrived", len(got[0]), len(got[1]), count)
			}
			for i := range got[0] {
				if a, w := got[0][i], got[1][i]; a != w || a.index != i+1 || a.run != 1 {
					t.Fatalf("arrival %d: %+v from the run, %+v from single sends; want datagram %d alone", i, a, w, i+1)
				}
			}
		})
	}
}
