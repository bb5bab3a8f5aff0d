package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"swift/internal/agent"
	"swift/internal/obs"
	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/transport/memnet"
	"swift/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden datagram traces")

// jumboMTU is a segment MTU that carries wire.JumboPacket: a 9000-byte
// jumbo frame.
const jumboMTU = 9000

// tapHost wraps a host so that every conn it opens logs the data-path
// datagrams crossing it while the log is armed. The conn embeds
// transport.PacketConn the way the benchmark's counting decorators do,
// so these tests also pin that such a wrapper stays transparent to the
// size agreement.
type tapHost struct {
	transport.Host
	log *tapLog
}

func (h tapHost) Listen(port string) (transport.PacketConn, error) {
	pc, err := h.Host.Listen(port)
	if err != nil {
		return nil, err
	}
	return &tapConn{PacketConn: pc, log: h.log}, nil
}

type tapConn struct {
	transport.PacketConn
	log *tapLog
}

func (c *tapConn) WriteTo(p []byte, addr string) error {
	c.log.record(">", p)
	return c.PacketConn.WriteTo(p, addr)
}

func (c *tapConn) ReadFrom(p []byte) (int, string, error) {
	n, from, err := c.PacketConn.ReadFrom(p)
	if err == nil {
		c.log.record("<", p[:n])
	}
	return n, from, err
}

// tapLog is the ordered record of one client's datagrams: direction,
// type, fragment range, flags and payload size. Request ids and handles
// are left out; they depend on what the client did before. dataIn sums
// the payload of the data packets received.
type tapLog struct {
	mu     sync.Mutex
	armed  bool
	lines  []string
	dataIn int64
}

func (l *tapLog) arm(on bool) {
	l.mu.Lock()
	l.armed = on
	l.mu.Unlock()
}

func (l *tapLog) record(dir string, p []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.armed {
		return
	}
	var pkt wire.Packet
	if err := wire.Unmarshal(p, &pkt); err != nil {
		l.lines = append(l.lines, fmt.Sprintf("%s undecodable %d bytes", dir, len(p)))
		return
	}
	if dir == "<" && pkt.Type == wire.TData {
		l.dataIn += int64(len(pkt.Payload))
	}
	l.lines = append(l.lines, fmt.Sprintf("%s %s off=%d len=%d flags=%d payload=%d datagram=%d",
		dir, pkt.Type, pkt.Offset, pkt.Length, pkt.Flags, len(pkt.Payload), len(p)))
}

// unitReadTrace writes one 64 KiB striping unit to a one-agent cluster
// on a segment of the given MTU, its agent reading its store readChunk
// bytes at a time (0 = the default), and returns the client's datagram
// trace of reading it back.
func unitReadTrace(t *testing.T, mtu, readChunk int) []string {
	t.Helper()
	const unit = 64 << 10
	log := &tapLog{}
	c := newCluster(t, clusterOpts{
		agents: 1, unit: unit, mtu: mtu, readChunk: readChunk,
		// No datagram is lost here, so no timeout should ever fire; one
		// that did on a stalled machine would add resubmissions to the
		// trace. Keep it far away.
		retryTimeout: time.Minute,
		clientHost:   func(h transport.Host) transport.Host { return tapHost{Host: h, log: log} },
	})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(unit, 21)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := make([]byte, unit)
	log.arm(true)
	_, err = f.ReadAt(out, 0)
	log.arm(false)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("unit read back wrong")
	}
	return log.lines
}

// TestJumboReadDatagramCount counts the datagrams of reading one 64 KiB
// striping unit. Where the segment carries 8 KiB payloads it is one
// request and eight full data packets. On a default segment each burst
// is full 1364-byte packets but its last, line for line the recorded
// trace. An agent that reads its store in the prototype's 8 KiB pieces
// sends, line for line, what every agent sent before a burst became one
// store read, 8-byte runts and all: the paper profile did not move.
func TestJumboReadDatagramCount(t *testing.T) {
	t.Run("jumbo", func(t *testing.T) {
		trace := unitReadTrace(t, jumboMTU, 0)
		want := []string{"> read off=0 len=65536 flags=0 payload=0 datagram=36"}
		for i := 0; i < 8; i++ {
			flags := 0
			if i == 7 {
				flags = int(wire.FLast)
			}
			want = append(want, fmt.Sprintf("< data off=%d len=8192 flags=%d payload=8192 datagram=%d",
				i*wire.JumboPayload, flags, wire.JumboPacket))
		}
		if got := strings.Join(trace, "\n"); got != strings.Join(want, "\n") {
			t.Errorf("jumbo unit read is not 1 request + 8 full data packets:\n%s", got)
		}
	})
	t.Run("base", func(t *testing.T) {
		matchGolden(t, "unit_read_base.golden", unitReadTrace(t, 0, 0), *updateGolden)
	})
	t.Run("base at 8 KiB store reads", func(t *testing.T) {
		// Recorded before the agent read a burst in one call; never
		// re-recorded.
		matchGolden(t, "unit_read_chunk8k.golden", unitReadTrace(t, 0, 8192), false)
	})
}

// matchGolden compares a datagram trace with testdata/name, first
// rewriting the file from it when update is set.
func matchGolden(t *testing.T, name string, trace []string, update bool) {
	t.Helper()
	got := strings.Join(trace, "\n") + "\n"
	golden := filepath.Join("testdata", name)
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("unit read differs from %s:\n%s", golden, got)
	}
}

// openOn opens one session from a fresh client on clientHost to a fresh
// agent on agentHost and returns it with the agent's log line for the
// open, which names the size the agent agreed to.
func openOn(t *testing.T, clientHost, agentHost transport.Host) (*agentSession, string) {
	t.Helper()
	a, err := agent.New(agentHost, store.NewMem(), agent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	cl, err := Dial(Config{Host: clientHost, Agents: []string{a.Addr()}, Unit: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	s, err := cl.openSession(0, a.Addr(), "obj", OpenFlags{Create: true}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	t.Cleanup(s.close)
	for _, e := range a.Trace().Snapshot() {
		if e.Kind == "open" {
			return s, e.Msg
		}
	}
	t.Fatal("agent logged no open event")
	return nil, ""
}

// The open payloads as the parent commit encoded them: a name, and a
// port with a fragment size. Neither has the trailing size fields.
var (
	parentOpenRequest = []byte{0, 3, 'o', 'b', 'j'}
	parentOpenReply   = func(port string, size uint64) []byte {
		b := binary.BigEndian.AppendUint16(nil, uint16(len(port)))
		b = append(b, port...)
		return binary.BigEndian.AppendUint64(b, size)
	}
)

// TestSessionPacketNegotiation opens sessions between ends whose media
// differ and checks the size each pair agrees on: 8 KiB payloads only
// when both ends' segments carry the packet and both receive queues hold
// the window, the base packet otherwise — including towards a peer from
// before the agreement existed, in either direction.
func TestSessionPacketNegotiation(t *testing.T) {
	n := memnet.New(1)
	t.Cleanup(n.Close)
	fast := memnet.SegmentConfig{BandwidthBps: 1e10, MTU: jumboMTU}
	jumbo := n.NewSegment("jumbo", fast)
	fast.MTU = 0
	ether := n.NewSegment("ether", fast)
	hosts := 0
	host := func(cfg memnet.HostConfig, segs ...*memnet.Segment) transport.Host {
		hosts++
		return n.MustHost(fmt.Sprintf("h%d", hosts), cfg, segs...)
	}
	tapped := func(h transport.Host) transport.Host { return tapHost{Host: h, log: &tapLog{}} }

	cases := []struct {
		name          string
		client, agent transport.Host
		payload       int
	}{
		{"jumbo to jumbo", host(memnet.HostConfig{}, jumbo), host(memnet.HostConfig{}, jumbo), wire.JumboPayload},
		{"through decorators", tapped(host(memnet.HostConfig{}, jumbo)), tapped(host(memnet.HostConfig{}, jumbo)), wire.JumboPayload},
		{"agent also on an MTU-1500 segment", host(memnet.HostConfig{}, jumbo), host(memnet.HostConfig{}, jumbo, ether), wire.MaxPayload},
		{"client also on an MTU-1500 segment", host(memnet.HostConfig{}, ether, jumbo), host(memnet.HostConfig{}, jumbo), wire.MaxPayload},
		{"agent receive queue too small", host(memnet.HostConfig{}, jumbo), host(memnet.HostConfig{PortQueue: 64}, jumbo), wire.MaxPayload},
		{"client receive queue too small", host(memnet.HostConfig{PortQueue: 64}, jumbo), host(memnet.HostConfig{}, jumbo), wire.MaxPayload},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, agentSaid := openOn(t, tc.client, tc.agent)
			packet := wire.HeaderSize + tc.payload + wire.TrailerSize
			// A conn that receives runs gets a buffer that holds one.
			if buf := transport.RunBuffer(s.conn, packet); len(s.payload) != tc.payload || len(s.buf) != buf {
				t.Errorf("client session: payload %d, receive buffer %d; want %d, %d",
					len(s.payload), len(s.buf), tc.payload, buf)
			}
			if want := int64(wire.BurstPackets * tc.payload); s.reqBytes != want {
				t.Errorf("burst size %d, want %d (%d packets)", s.reqBytes, want, wire.BurstPackets)
			}
			if want := fmt.Sprintf("%d-byte packets", packet); !strings.Contains(agentSaid, want) {
				t.Errorf("agent logged %q, want it to say %s", agentSaid, want)
			}
		})
	}

	t.Run("reply without the field", func(t *testing.T) {
		// An agent from the parent commit: it ignores whatever trails the
		// name and answers with a port and a size.
		old, err := host(memnet.HostConfig{}, jumbo).Listen("7070")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { old.Close() })
		go func() {
			buf := make([]byte, wire.MaxPacket)
			for {
				m, from, err := old.ReadFrom(buf)
				if err != nil {
					return
				}
				var pkt wire.Packet
				if wire.Unmarshal(buf[:m], &pkt) != nil || pkt.Type != wire.TOpen {
					continue
				}
				reply, _ := wire.Marshal(&wire.Packet{
					Header:  wire.Header{Type: wire.TOpenReply, ReqID: pkt.ReqID, Handle: 1},
					Payload: parentOpenReply("40001", 4096),
				})
				old.WriteTo(reply, from)
			}
		}()
		cl, err := Dial(Config{Host: host(memnet.HostConfig{}, jumbo), Agents: []string{old.LocalAddr()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		s, err := cl.openSession(0, old.LocalAddr(), "obj", OpenFlags{}, obs.SpanContext{})
		if err != nil {
			t.Fatalf("open against a parent-commit agent: %v", err)
		}
		t.Cleanup(s.close)
		if len(s.payload) != wire.MaxPayload || s.fragSize != 4096 {
			t.Errorf("session payload %d, fragment size %d; want %d and 4096", len(s.payload), s.fragSize, wire.MaxPayload)
		}
	})

	t.Run("request without the field", func(t *testing.T) {
		// A client from the parent commit against this agent, both on
		// the jumbo segment: the reply must be one the parent parses,
		// byte for byte what its own agent would have sent.
		a, err := agent.New(host(memnet.HostConfig{}, jumbo), store.NewMem(), agent.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		conn, err := host(memnet.HostConfig{}, jumbo).Listen("0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		req, _ := wire.Marshal(&wire.Packet{
			Header:  wire.Header{Type: wire.TOpen, ReqID: 9, Flags: wire.FCreate},
			Payload: parentOpenRequest,
		})
		if err := conn.WriteTo(req, a.Addr()); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, wire.MaxPacket)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		m, _, err := conn.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		var pkt wire.Packet
		if err := wire.Unmarshal(buf[:m], &pkt); err != nil || pkt.Type != wire.TOpenReply {
			t.Fatalf("reply %v, %v", pkt.Type, err)
		}
		rep, err := wire.ParseOpenReply(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if want := parentOpenReply(rep.Port, 0); !bytes.Equal(pkt.Payload, want) {
			t.Errorf("reply payload %x, want the parent's encoding %x", pkt.Payload, want)
		}
	})
}

// TestJumboLossDrill runs the write and read recovery machinery at the
// 8 KiB payload over a segment that drops and reorders frames: agents
// ask for the ranges they miss, data that overtakes its announcement is
// stashed and replayed, the client resubmits what a read lost, and with
// MaxBurstBytes set to exactly one default burst every announcement sits
// at the limit. The object must come back byte for byte.
func TestJumboLossDrill(t *testing.T) {
	const burst = wire.BurstPackets * wire.JumboPayload
	c := newCluster(t, clusterOpts{
		unit: 64 << 10, mtu: jumboMTU,
		loss: 0.05, reorder: 0.1,
		maxBurst: burst,
	})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	for i, s := range f.sessions {
		if len(s.payload) != wire.JumboPayload || s.reqBytes != burst {
			t.Fatalf("session %d: payload %d, burst %d; the drill needs %d and %d", i, len(s.payload), s.reqBytes, wire.JumboPayload, burst)
		}
	}
	data := randBytes(3<<20, 33)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write under loss: %v", err)
	}
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read under loss: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("object did not come back byte for byte")
	}
	m := c.client.MetricsSnapshot()
	if m.ResendAsks == 0 || m.ReadTimeouts == 0 {
		t.Errorf("the drill lost nothing that mattered: %d resend asks, %d read timeouts; raise the loss rate", m.ResendAsks, m.ReadTimeouts)
	}
	for i, a := range c.agents {
		for _, e := range a.Trace().Snapshot() {
			if e.Kind == "orphan_burst" {
				t.Errorf("agent %d dropped a burst it had stashed: %s", i, e.Msg)
			}
		}
	}
}
