package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"swift/internal/agent"
	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/transport/memnet"
	"swift/internal/transport/udpnet"
	"swift/internal/wire"
)

// runHost wraps a host so that every conn it opens takes runs: its
// WriteSegments hands each datagram of a run to the conn beneath with one
// WriteTo, and can lose one of them.
type runHost struct {
	transport.Host
	tap *runTap
}

func (h runHost) Listen(port string) (transport.PacketConn, error) {
	pc, err := h.Host.Listen(port)
	if err != nil {
		return nil, err
	}
	return &runConn{PacketConn: pc, tap: h.tap}, nil
}

type runConn struct {
	transport.PacketConn
	tap *runTap
}

func (c *runConn) WriteSegments(b []byte, seg int, addr string) error {
	lose := c.tap.run(b, seg)
	for i := 0; len(b) > 0; i++ {
		var dgram []byte
		dgram, b = transport.NextSegment(b, seg)
		if i == lose {
			continue
		}
		c.tap.note()
		if err := c.PacketConn.WriteTo(dgram, addr); err != nil {
			return err
		}
	}
	return nil
}

// runTap is what every conn of one runHost shares: the data runs sent,
// the datagrams handed on, and which datagram of the next data run to
// lose.
type runTap struct {
	mu        sync.Mutex
	lose      int   // -1 when disarmed
	runs      []int // datagrams per data run
	lost      bool
	forwarded int
}

// run records one run of seg-byte datagrams and returns the index of the
// one to lose, or -1.
func (t *runTap) run(b []byte, seg int) int {
	var pkt wire.Packet
	if wire.Unmarshal(b[:seg], &pkt) != nil || pkt.Type != wire.TData {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := (len(b) + seg - 1) / seg
	t.runs = append(t.runs, n)
	if k := t.lose; k >= 0 && k < n {
		t.lose, t.lost = -1, true
		return k
	}
	return -1
}

func (t *runTap) note() {
	t.mu.Lock()
	t.forwarded++
	t.mu.Unlock()
}

func (t *runTap) arm(k int) {
	t.mu.Lock()
	t.lose = k
	t.mu.Unlock()
}

// TestSegmentLossGranularity loses each datagram of a batched run in
// turn — the client's write run and the agent's read run — and checks that
// recovery works at datagram granularity, as it did before batching: the
// agent asks for the one missing range of a write, the client resubmits
// the one missing range of a read, and the bytes come back exact. The run
// wrapper hands the conn beneath one WriteTo per datagram.
func TestSegmentLossGranularity(t *testing.T) {
	// One 64 KiB unit at 8 KiB payloads is one burst of eight datagrams:
	// a run of seven, then the eighth alone.
	const unit, run = 64 << 10, transport.MaxRun / wire.JumboPacket
	for _, dir := range bothDirections {
		for k := 0; k < run; k++ {
			t.Run(fmt.Sprintf("%s segment %d", dirName[dir], k), func(t *testing.T) {
				tap := &runTap{lose: -1}
				wrap := func(h transport.Host) transport.Host { return runHost{Host: h, tap: tap} }
				o := clusterOpts{agents: 1, unit: unit, mtu: jumboMTU}
				if dir == writing {
					o.clientHost = wrap
				} else {
					o.agentHost = wrap
				}
				c := newCluster(t, o)
				f, err := c.client.Open("obj", OpenFlags{Create: true})
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				data := randBytes(unit, int64(k))
				if dir == writing {
					tap.arm(k)
				}
				if _, err := f.WriteAt(data, 0); err != nil {
					t.Fatalf("write: %v", err)
				}
				if dir == reading {
					tap.arm(k)
				}
				out := make([]byte, unit)
				if _, err := f.ReadAt(out, 0); err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(out, data) {
					t.Fatal("the unit did not come back byte for byte")
				}
				tap.mu.Lock()
				defer tap.mu.Unlock()
				if !tap.lost || len(tap.runs) == 0 || tap.runs[0] != run {
					t.Fatalf("data runs %v, lost %v: the drill needs a first run of %d datagrams", tap.runs, tap.lost, run)
				}
				sent := 0
				for _, n := range tap.runs {
					sent += n
				}
				if tap.forwarded != sent-1 {
					t.Errorf("%d datagrams handed on of %d in runs, one lost", tap.forwarded, sent)
				}
				m := c.client.MetricsSnapshot()
				if dir == writing && m.ResendAsks == 0 {
					t.Error("the write recovered without the agent asking for the lost datagram")
				}
				if dir == reading && m.ReadTimeouts == 0 {
					t.Error("the read recovered without resubmitting")
				}
			})
		}
	}
}

// countHost wraps a host so that every conn it opens keeps the segment
// calls of the conn beneath and counts, per destination, the calls that
// send data packets and the data datagrams in them.
type countHost struct {
	transport.Host
	tally *sendTally
}

func (h countHost) Listen(port string) (transport.PacketConn, error) {
	pc, err := h.Host.Listen(port)
	if err != nil {
		return nil, err
	}
	return &countConn{PacketConn: pc, tally: h.tally}, nil
}

type countConn struct {
	transport.PacketConn
	tally *sendTally
}

func (c *countConn) WriteTo(p []byte, addr string) error {
	c.tally.note(p, len(p), addr)
	return c.PacketConn.WriteTo(p, addr)
}

// WriteSegments counts the sends the conn beneath makes: one for the run
// when it takes runs, one per datagram otherwise.
func (c *countConn) WriteSegments(b []byte, seg int, addr string) error {
	if _, ok := c.PacketConn.(transport.SegmentWriter); !ok {
		for len(b) > 0 {
			var dgram []byte
			dgram, b = transport.NextSegment(b, seg)
			if err := c.WriteTo(dgram, addr); err != nil {
				return err
			}
		}
		return nil
	}
	c.tally.note(b, seg, addr)
	return transport.WriteSegments(c.PacketConn, b, seg, addr)
}

func (c *countConn) ReadSegments(p []byte) (int, int, string, error) {
	return transport.ReadSegments(c.PacketConn, p)
}

type sendTally struct {
	mu            sync.Mutex
	calls, dgrams map[string]int
}

func newSendTally() *sendTally {
	return &sendTally{calls: make(map[string]int), dgrams: make(map[string]int)}
}

func (t *sendTally) note(b []byte, seg int, addr string) {
	var pkt wire.Packet
	if wire.Unmarshal(b[:seg], &pkt) != nil || pkt.Type != wire.TData {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls[addr]++
	t.dgrams[addr] += (len(b) + seg - 1) / seg
}

// check fails unless every destination's data left in at most one call
// per seven datagrams, and returns the datagrams counted.
func (t *sendTally) check(tb testing.TB, who string) int {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for addr, n := range t.dgrams {
		if limit := (n + 6) / 7; t.calls[addr] > limit {
			tb.Errorf("%s sent %d data datagrams to %s in %d calls, want at most %d", who, n, addr, t.calls[addr], limit)
		}
		total += n
	}
	return total
}

// TestSegmentedBurst writes and reads 256 KiB striped over three agents,
// on UDP loopback and on unthrottled memnet with a jumbo MTU: the bytes
// come back exact, and each side's data leaves in runs, at most one
// transport send per seven datagrams.
func TestSegmentedBurst(t *testing.T) {
	t.Run("udpnet", func(t *testing.T) {
		segmentedBurst(t, func(string) transport.Host { return udpnet.NewHost("127.0.0.1") })
	})
	t.Run("memnet", func(t *testing.T) {
		n := memnet.New(1)
		t.Cleanup(n.Close)
		seg := n.NewSegment("bus", memnet.SegmentConfig{BandwidthBps: 1e15, MTU: jumboMTU})
		segmentedBurst(t, func(name string) transport.Host { return n.MustHost(name, memnet.HostConfig{}, seg) })
	})
}

// segmentedBurst runs TestSegmentedBurst on the hosts newHost makes.
func segmentedBurst(t *testing.T, newHost func(name string) transport.Host) {
	const unit, size = 64 << 10, 256 << 10
	var addrs []string
	var agentTallies []*sendTally
	for i := 0; i < 3; i++ {
		tally := newSendTally()
		a, err := agent.New(countHost{Host: newHost(agentName(i)), tally: tally}, store.NewMem(), agent.Config{Port: "0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		addrs = append(addrs, a.Addr())
		agentTallies = append(agentTallies, tally)
	}
	clientTally := newSendTally()
	cl, err := Dial(Config{Host: countHost{Host: newHost("client"), tally: clientTally}, Agents: addrs, Unit: unit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	f, err := cl.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, s := range f.sessions {
		t.Logf("agent %d: %d-byte data payloads", i, len(s.payload))
	}
	data := randBytes(size, 26)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := make([]byte, size)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("256 KiB did not come back byte for byte")
	}
	if n := clientTally.check(t, "the client"); n < size/wire.JumboPayload {
		t.Errorf("the client counted %d data datagrams for %d bytes", n, size)
	}
	read := 0
	for i, tally := range agentTallies {
		read += tally.check(t, fmt.Sprintf("agent %d", i))
	}
	if read < size/wire.JumboPayload {
		t.Errorf("the agents counted %d data datagrams for %d bytes", read, size)
	}
}
