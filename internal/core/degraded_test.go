package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swift/internal/transport"
	"swift/internal/wire"
)

// Count-based guards on the degraded read path (no stopwatch): what the
// row planner moves over the wire, what it hands the codec, and what it
// does when a second agent fails while it is reading around the first.

// TestDegradedReadTouchesEachByteOnce: a 3+2 volume with agents 1 and 3
// down. Row 0 keeps data on agents 1, 2, 3 (parity on 4, 0); row 1 on
// 4, 0, 1 (parity on 2, 3).
func TestDegradedReadTouchesEachByteOnce(t *testing.T) {
	const unit = 64 << 10
	const row = 3 * unit
	log := &tapLog{}
	c := newCluster(t, clusterOpts{
		agents: 5, parityShards: 2, unit: unit,
		retryTimeout: 5 * time.Second, // a resubmission would double-count bytes
		clientHost:   func(h transport.Host) transport.Host { return tapHost{Host: h, log: log} },
	})
	f0, data := writeObj(t, c, "obj", 9*row, 140)
	f0.Close()
	for _, dead := range []int{1, 3} {
		c.agents[dead].Close()
		c.client.MarkDown(dead, true)
	}
	f, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer f.Close()

	// read performs one read and returns the data bytes the client
	// received for it and the codec's work.
	buf := make([]byte, 4*row)
	read := func(off, n int64) (int64, struct{ calls, bytes int64 }) {
		t.Helper()
		log.arm(true)
		log.mu.Lock()
		log.dataIn = 0
		log.mu.Unlock()
		before := c.client.ECStats()
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			t.Fatalf("read [%d:%d): %v", off, off+n, err)
		}
		log.arm(false)
		if !bytes.Equal(buf[:n], data[off:off+n]) {
			t.Fatalf("read [%d:%d) returned wrong bytes", off, off+n)
		}
		d := c.client.ECStats().Sub(before)
		return log.dataIn, struct{ calls, bytes int64 }{d.ReconstructCalls, d.ReconstructBytes}
	}

	// (a) Four whole rows: every byte asked for crosses the wire once
	// (the parity units replace the missing data units one for one), each
	// row is decoded once, and only the five missing data units — two in
	// row 0, one in each of rows 1–3 — are rebuilt.
	recv, codec := read(0, 4*row)
	if recv != 4*row {
		t.Errorf("row-aligned read of %d bytes received %d data bytes, want the same", 4*row, recv)
	}
	if codec.bytes != 5*unit {
		t.Errorf("rebuilt %d bytes, want the 5 missing data units (%d)", codec.bytes, 5*unit)
	}
	if codec.calls != 4 {
		t.Errorf("%d codec calls for 4 rows, want one per row", codec.calls)
	}
	var ms runtime.MemStats
	const reads = 8
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	for i := 0; i < reads; i++ { // untapped: the tap allocates a line per datagram
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	runtime.ReadMemStats(&ms)
	if per := (ms.TotalAlloc - allocated) / reads; per >= unit && !raceEnabled {
		t.Errorf("%d bytes allocated per degraded read, want less than one unit (%d)", per, unit)
	}

	// (b) 4 KiB inside a dead unit (row 0, unit 0, on agent 1): the same
	// 4 KiB of m other shards, not m whole units.
	recv, codec = read(8192, 4096)
	if recv != 3*4096 {
		t.Errorf("4 KiB read in a dead unit received %d data bytes, want %d", recv, 3*4096)
	}
	if codec.calls != 1 || codec.bytes != 4096 {
		t.Errorf("4 KiB read in a dead unit: %d codec calls rebuilding %d bytes, want 1 and 4096", codec.calls, codec.bytes)
	}

	// (c) 4 KiB of row 1, unit 0 (agent 4, live): agent 3 is down but
	// holds that row's parity. Nothing to rebuild, nothing extra to read.
	recv, codec = read(row+8192, 4096)
	if recv != 4096 || codec.calls != 0 {
		t.Errorf("read beside a dead parity unit received %d bytes with %d codec calls, want 4096 and 0", recv, codec.calls)
	}
}

// TestDegradedReadUnaligned: reads that start and end anywhere — inside a
// dead unit, across it, over several rows, up to the object's tail — come
// back byte-exact with any two agents down, so rows whose missing units
// need different byte ranges get a codec call per range.
func TestDegradedReadUnaligned(t *testing.T) {
	const unit = 4096
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: unit})
	f0, data := writeObj(t, c, "obj", 7*3*unit+1234, 142)
	f0.Close()
	for _, dead := range []int{0, 2} {
		c.agents[dead].Close()
		c.client.MarkDown(dead, true)
	}
	f, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer f.Close()
	size := f.Size()
	rng := rand.New(rand.NewSource(143))
	buf := make([]byte, 4*3*unit)
	for i := 0; i < 300; i++ {
		off := rng.Int63n(size)
		n := min(1+rng.Int63n(int64(len(buf))), size-off)
		if i%3 == 0 {
			n = min(1+rng.Int63n(2*unit), size-off) // mostly inside one or two units
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			t.Fatalf("read [%d:%d): %v", off, off+n, err)
		}
		if !bytes.Equal(buf[:n], data[off:off+n]) {
			t.Fatalf("read [%d:%d) returned wrong bytes", off, off+n)
		}
	}
}

// faultHost wraps the client's host so that read requests to chosen
// agents are answered, on the client's own conn, with a queue-full
// pushback instead of reaching the agent.
type faultHost struct {
	transport.Host
	mu     sync.Mutex
	refuse map[string]bool // agent host name → answer its reads with pushback
}

func (h *faultHost) setRefuse(agents ...int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.refuse = map[string]bool{}
	for _, a := range agents {
		h.refuse[agentName(a)] = true
	}
}

func (h *faultHost) Listen(port string) (transport.PacketConn, error) {
	pc, err := h.Host.Listen(port)
	if err != nil {
		return nil, err
	}
	return &faultConn{PacketConn: pc, host: h}, nil
}

// faultConn belongs to one session worker, like the conn it wraps.
type faultConn struct {
	transport.PacketConn
	host    *faultHost
	replies [][]byte
}

func (c *faultConn) WriteTo(p []byte, addr string) error {
	var pkt wire.Packet
	host, _, _ := strings.Cut(addr, ":")
	c.host.mu.Lock()
	refuse := c.host.refuse[host]
	c.host.mu.Unlock()
	if refuse && wire.Unmarshal(p, &pkt) == nil && pkt.Type == wire.TRead {
		reply, err := wire.AppendPacket(nil, &wire.Packet{
			Header:  wire.Header{Type: wire.TPushback, ReqID: pkt.ReqID, Handle: pkt.Handle},
			Payload: wire.AppendPushback(nil, &wire.PushbackInfo{Reason: wire.PushQueueFull, RetryAfter: time.Millisecond}),
		})
		if err != nil {
			return err
		}
		c.replies = append(c.replies, reply)
		return nil
	}
	return c.PacketConn.WriteTo(p, addr)
}

func (c *faultConn) ReadFrom(p []byte) (int, string, error) {
	if len(c.replies) > 0 {
		n := copy(p, c.replies[0])
		c.replies = c.replies[1:]
		return n, "", nil
	}
	return c.PacketConn.ReadFrom(p)
}

// TestParityFetchSecondFailure: agent 1 is down, so a read of row 0
// (data on 1, 2, 3) rebuilds its first unit from the row's first parity
// unit, on agent 4 — which holds nothing else of the row, so only the
// planner reads from it. When that read fails the planner takes the
// second parity unit (agent 0) and the read is still byte-exact; the
// failure reaches the agent's lifecycle only when it is a death; and when
// the second parity unit is out of reach too, the error that took the
// first one away is what the caller sees.
func TestParityFetchSecondFailure(t *testing.T) {
	const unit = 4096
	setup := func(t *testing.T) (*cluster, *faultHost, *File, []byte) {
		fh := &faultHost{}
		c := newCluster(t, clusterOpts{
			agents: 5, parityShards: 2, unit: unit, integrityBS: repairBS,
			retryTimeout: 10 * time.Millisecond, maxRetries: 5,
			clientHost: func(h transport.Host) transport.Host { fh.Host = h; return fh },
		})
		f0, data := writeObj(t, c, "obj", 6*3*unit, 141)
		f0.Close()
		c.agents[1].Close()
		c.client.MarkDown(1, true)
		f, err := c.client.Open("obj", OpenFlags{})
		if err != nil {
			t.Fatalf("degraded open: %v", err)
		}
		t.Cleanup(func() { f.Close() })
		return c, fh, f, data
	}
	readRow0 := func(t *testing.T, f *File, data []byte) {
		t.Helper()
		got := make([]byte, 3*unit)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data[:3*unit]) {
			t.Fatal("read returned wrong bytes")
		}
	}
	lifecycleQuiet := func(t *testing.T, c *cluster, agents ...int) {
		t.Helper()
		for _, a := range agents {
			if tr := c.client.tel.Load(evHealth, a); tr != 0 {
				t.Errorf("agent %d: %d lifecycle transitions, want 0", a, tr)
			}
		}
	}

	t.Run("death", func(t *testing.T) {
		c, _, f, data := setup(t)
		c.agents[4].Close()
		readRow0(t, f, data)
		if st := c.client.Health()[4].State; st == StateHealthy {
			t.Error("agent 4 died under a planner read and is still healthy: failAgent did not fire")
		}
		lifecycleQuiet(t, c, 0, 2, 3)
		if calls := c.client.ECStats().ReconstructCalls; calls != 1 {
			t.Errorf("%d codec calls, want 1 (the row is decoded once, after the second pass)", calls)
		}
	})
	t.Run("corruption", func(t *testing.T) {
		c, _, f, data := setup(t)
		flipRaw(t, c, 4, "obj", 100) // row 0 of agent 4: the first parity unit
		before := c.client.MetricsSnapshot().ReadBursts
		readRow0(t, f, data)
		// Agents 2 and 3 directly, agent 4 refused, agent 0 instead.
		if bursts := c.client.MetricsSnapshot().ReadBursts - before; bursts != 4 {
			t.Errorf("%d read bursts, want 4: the rotten parity unit was not asked for", bursts)
		}
		lifecycleQuiet(t, c, 0, 2, 3, 4)
	})
	t.Run("pushback", func(t *testing.T) {
		c, fh, f, data := setup(t)
		fh.setRefuse(4)
		readRow0(t, f, data)
		if pb := c.client.MetricsSnapshot().Pushbacks; pb != 2 {
			t.Errorf("%d pushbacks counted, want the 2 that make agent 4 busy", pb)
		}
		lifecycleQuiet(t, c, 0, 2, 3, 4)
	})
	t.Run("below_m", func(t *testing.T) {
		c, fh, f, _ := setup(t)
		fh.setRefuse(4, 0)
		_, err := f.ReadAt(make([]byte, 3*unit), 0)
		if !errors.Is(err, ErrAgentBusy) || !strings.Contains(err.Error(), "agent 4") {
			t.Fatalf("read with both parity units refused: err = %v, want agent 4's ErrAgentBusy", err)
		}
		lifecycleQuiet(t, c, 0, 2, 3, 4)
	})
}
