package udpnet

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"swift/internal/transport"
)

func TestRoundTrip(t *testing.T) {
	h := NewHost("127.0.0.1")
	a, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.WriteTo([]byte("ping"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, from, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ping" || from != a.LocalAddr() {
		t.Fatalf("got %q from %q", buf[:n], from)
	}
}

func TestTimeoutMapsToTransportError(t *testing.T) {
	h := NewHost("127.0.0.1")
	c, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := c.ReadFrom(make([]byte, 8)); !transport.IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestBadAddressRejected(t *testing.T) {
	h := NewHost("127.0.0.1")
	c, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteTo([]byte("x"), "not-an-address"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestEmptyHostDefaultsToLoopback(t *testing.T) {
	if NewHost("").Name() != "127.0.0.1" {
		t.Fatal("empty host did not default")
	}
}

func TestDuplicateFixedPortFails(t *testing.T) {
	h := NewHost("127.0.0.1")
	a, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_, port, _ := transport.SplitAddr(a.LocalAddr())
	if _, err := h.Listen(port); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

// TestSourceStringMatchesUDPAddr pins the string ReadFrom reports for a
// datagram's source to what net.UDPAddr.String printed before sources
// were cached as netip.AddrPort — in particular an IPv4-mapped IPv6
// source (what a dual-stack socket sees from an IPv4 peer) prints as
// IPv4.
func TestSourceStringMatchesUDPAddr(t *testing.T) {
	c := &conn{src: make(map[netip.AddrPort]string)}
	for _, s := range []string{
		"127.0.0.1:7070",
		"[::ffff:10.1.2.3]:40001",
		"[::1]:7070",
		"[2001:db8::1]:65535",
		"[fe80::1%eth0]:9",
	} {
		ap := netip.MustParseAddrPort(s)
		want := net.UDPAddrFromAddrPort(ap).String()
		if got := c.sourceString(ap); got != want {
			t.Errorf("source %s reported as %q, net.UDPAddr prints %q", s, got, want)
		}
		if got := c.sourceString(ap); got != want {
			t.Errorf("cached source %s reported as %q, want %q", s, got, want)
		}
	}
}

// TestPeerCachesBounded: more peers than maxPeers empty the caches
// instead of growing them.
func TestPeerCachesBounded(t *testing.T) {
	h := NewHost("127.0.0.1")
	pc, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	c := pc.(*conn)
	for port := 1; port <= 3*maxPeers; port++ {
		ap := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(port))
		c.sourceString(ap)
		if _, err := c.resolve(ap.String()); err != nil {
			t.Fatal(err)
		}
		if len(c.src) > maxPeers || len(c.dst) > maxPeers {
			t.Fatalf("after %d peers the caches hold %d sources and %d destinations, want <= %d", port, len(c.src), len(c.dst), maxPeers)
		}
	}
}

// TestDatagramAllocs pins the transport rung: to a peer already seen, a
// loopback WriteTo+ReadFrom pair neither resolves nor formats an address.
func TestDatagramAllocs(t *testing.T) {
	h := NewHost("127.0.0.1")
	a, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payload := make([]byte, 1400)
	in := make([]byte, 2048)
	to := b.LocalAddr()
	b.SetReadDeadline(time.Now().Add(10 * time.Second))
	allocs := testing.AllocsPerRun(500, func() {
		if err := a.WriteTo(payload, to); err != nil {
			t.Fatal(err)
		}
		if n, from, err := b.ReadFrom(in); err != nil || n != len(payload) || from != a.LocalAddr() {
			t.Fatalf("read %d bytes from %q: %v", n, from, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("%v allocations per WriteTo+ReadFrom pair, want <= 1", allocs)
	}
	t.Logf("%v allocations per WriteTo+ReadFrom pair", allocs)

	// A run both ways: seven 8 KiB datagrams, and a base burst's worth of
	// 1400-byte ones.
	run := make([]byte, transport.RunBytes)
	for _, shape := range []struct{ count, seg int }{{7, 32 + 8192 + 4}, {42, 1400}} {
		out := make([]byte, shape.count*shape.seg)
		sc := a.(transport.SegmentWriter)
		rc := b.(transport.SegmentReader)
		allocs := testing.AllocsPerRun(200, func() {
			if err := sc.WriteSegments(out, shape.seg, to); err != nil {
				t.Fatal(err)
			}
			for got := 0; got < len(out); {
				n, _, from, err := rc.ReadSegments(run)
				if err != nil || from != a.LocalAddr() {
					t.Fatalf("run from %q: %v", from, err)
				}
				got += n
			}
		})
		if allocs != 0 {
			t.Fatalf("%v allocations per WriteSegments+ReadSegments of %d x %d bytes, want 0", allocs, shape.count, shape.seg)
		}
	}
}

// TestMediumReportsLoopback checks what a loopback socket says of its
// medium: an interface MTU that carries far more than an Ethernet frame,
// and the receive buffer the kernel granted after Listen asked for room.
// A wildcard bind, a name and an address no interface holds all report
// nothing, which callers read as the smallest medium.
func TestMediumReportsLoopback(t *testing.T) {
	c, err := NewHost("127.0.0.1").Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := transport.MediumOf(c)
	if m.MaxDatagram < 1500-28 {
		t.Errorf("loopback carries %d-byte datagrams, want at least an Ethernet frame's", m.MaxDatagram)
	}
	if m.RecvBuffer <= 0 {
		t.Skipf("receive buffer not readable on this platform (%d)", m.RecvBuffer)
	}
	for _, ip := range []string{"0.0.0.0", "::", "localhost", "192.0.2.1"} {
		if got := interfaceMaxDatagram(ip); got != 0 {
			t.Errorf("interfaceMaxDatagram(%q) = %d, want 0 (not known)", ip, got)
		}
	}
	if got := interfaceMaxDatagram("127.0.0.2"); got != m.MaxDatagram {
		t.Errorf("interfaceMaxDatagram(127.0.0.2) = %d, want the loopback's %d", got, m.MaxDatagram)
	}
}

// TestReportedBufferHoldsHalfItsSize pins the rule senders budget by: a
// socket queues, unread, datagrams adding up to half the receive buffer
// it reports, without dropping one. (The kernel charges a datagram its
// buffer's whole size, about twice the bytes of an 8 KiB one.)
func TestReportedBufferHoldsHalfItsSize(t *testing.T) {
	const datagram = 32 + 8192 + 4 // wire.JumboPacket
	h := NewHost("127.0.0.1")
	a, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := h.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	m := transport.MediumOf(b)
	if m.MaxDatagram < datagram || m.RecvBuffer <= 0 {
		t.Skipf("medium %+v does not carry %d-byte datagrams", m, datagram)
	}
	// Cap the count so a huge grant does not make the test slow; the
	// default core window is 84 datagrams.
	window := min(m.RecvBuffer/2/datagram, 168)
	p := make([]byte, datagram)
	for i := 0; i < window; i++ {
		p[0] = byte(i)
		if err := a.WriteTo(p, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	in := make([]byte, datagram)
	b.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < window; i++ {
		n, _, err := b.ReadFrom(in)
		if err != nil {
			t.Fatalf("datagram %d of %d was dropped from a %d-byte buffer: %v", i, window, m.RecvBuffer, err)
		}
		if n != datagram || in[0] != byte(i) {
			t.Fatalf("datagram %d arrived as %d bytes tagged %d", i, n, in[0])
		}
	}
}
