// Package udpnet implements the transport interfaces over real UDP
// sockets, for running Swift agents and clients on an actual network (or
// the loopback interface). This is the deployment transport; the measured
// experiments use memnet so that medium capacity is controlled.
package udpnet

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/obs"
	"swift/internal/transport"
)

// Host binds endpoints on a single IP address (e.g. "127.0.0.1").
// It keeps atomic traffic totals across all its sockets.
type Host struct {
	ip string

	// maxDatagram is the largest UDP payload the interface holding ip
	// sends in one frame (0 = not known), looked up at the first Listen.
	mtuOnce     sync.Once
	maxDatagram int

	pktsIn, pktsOut   atomic.Int64
	bytesIn, bytesOut atomic.Int64
}

// Stats is a snapshot of a Host's cumulative socket traffic.
type Stats struct {
	PacketsIn, PacketsOut int64
	BytesIn, BytesOut     int64
}

// Stats returns the host's cumulative traffic totals.
func (h *Host) Stats() Stats {
	return Stats{
		PacketsIn:  h.pktsIn.Load(),
		PacketsOut: h.pktsOut.Load(),
		BytesIn:    h.bytesIn.Load(),
		BytesOut:   h.bytesOut.Load(),
	}
}

// Register exports the host's traffic totals into reg, computed at export
// time from the live atomics.
func (h *Host) Register(reg *obs.Registry) {
	l := obs.Labels{"host": h.ip}
	reg.CounterFunc("swift_udp_packets_in_total", "UDP datagrams received.", l,
		func() float64 { return float64(h.pktsIn.Load()) })
	reg.CounterFunc("swift_udp_packets_out_total", "UDP datagrams sent.", l,
		func() float64 { return float64(h.pktsOut.Load()) })
	reg.CounterFunc("swift_udp_bytes_in_total", "UDP payload bytes received.", l,
		func() float64 { return float64(h.bytesIn.Load()) })
	reg.CounterFunc("swift_udp_bytes_out_total", "UDP payload bytes sent.", l,
		func() float64 { return float64(h.bytesOut.Load()) })
}

// NewHost returns a Host binding sockets on the given IP address.
// An empty ip binds the unspecified address.
func NewHost(ip string) *Host {
	if ip == "" {
		ip = "127.0.0.1"
	}
	return &Host{ip: ip}
}

// Name returns the host's IP address.
func (h *Host) Name() string { return h.ip }

// Listen opens a UDP socket on the given port ("0" for ephemeral).
func (h *Host) Listen(port string) (transport.PacketConn, error) {
	pc, err := net.ListenPacket("udp", net.JoinHostPort(h.ip, port))
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %s:%s: %w", h.ip, port, err)
	}
	uc := pc.(*net.UDPConn) // what ListenPacket("udp", …) returns
	h.mtuOnce.Do(func() { h.maxDatagram = interfaceMaxDatagram(h.ip) })
	// The kernel's default receive buffer overflows under a window of
	// large datagrams. Ask for room; it grants what net.core.rmem_max
	// allows, and the size agreement goes by what was granted.
	_ = uc.SetReadBuffer(recvBufferAsk) // a refusal leaves the default, which Medium then reports
	c := &conn{
		host: h,
		uc:   uc,
		medium: transport.Medium{
			MaxDatagram: h.maxDatagram,
			RecvBuffer:  effectiveRecvBuffer(uc),
		},
		addr: uc.LocalAddr().String(),
		dst:  make(map[string]netip.AddrPort),
		src:  make(map[netip.AddrPort]string),
	}
	gso, gro := segmentOffload(uc)
	c.gso.Store(gso)
	c.gro = gro
	return c, nil
}

// recvBufferAsk is the receive buffer every socket asks for: core's
// default write window of two 42-packet bursts of 8 KiB payloads is
// 688 KB in flight, which a kernel that charges a datagram twice its
// length holds in 1.4 MB. Linux grants twice what is asked, up to twice
// net.core.rmem_max.
const recvBufferAsk = 2 << 20

// interfaceMaxDatagram returns the largest UDP payload the interface
// that holds ip carries in one frame: its MTU less the IP and UDP
// headers. It returns 0 — not known — for the unspecified address (a
// wildcard bind sends over whichever interface routes), for a name that
// is not an address, and for an address no interface holds.
func interfaceMaxDatagram(ip string) int {
	addr, err := netip.ParseAddr(ip)
	if err != nil || addr.IsUnspecified() {
		return 0
	}
	headers := 20 + 8
	if addr.Is6() && !addr.Is4In6() {
		headers = 40 + 8
	}
	ifs, err := net.Interfaces()
	if err != nil {
		return 0
	}
	want := net.IP(addr.AsSlice())
	for _, ifc := range ifs {
		addrs, err := ifc.Addrs()
		if err != nil {
			continue
		}
		for _, a := range addrs {
			ipn, ok := a.(*net.IPNet)
			if !ok {
				continue
			}
			// Every address of the loopback network is local, not only
			// the one the interface lists.
			if ipn.IP.Equal(want) || (ifc.Flags&net.FlagLoopback != 0 && ipn.Contains(want)) {
				return ifc.MTU - headers
			}
		}
	}
	return 0
}

// maxPeers bounds each of a conn's address caches; a cache that fills is
// emptied and rebuilt from the peers still talking.
const maxPeers = 64

// conn keeps the transport's string addresses at its edge and speaks
// netip.AddrPort to the socket, so that neither direction resolves,
// formats or allocates per datagram once a peer has been seen.
type conn struct {
	host   *Host
	uc     *net.UDPConn
	medium transport.Medium // fixed at Listen
	addr   string           // LocalAddr, fixed at Listen

	mu  sync.Mutex
	dst map[string]netip.AddrPort // guarded by mu; WriteTo address → resolved peer
	src map[netip.AddrPort]string // guarded by mu; socket source → ReadFrom address

	// gso is whether a run still leaves in one UDP_SEGMENT sendmsg. It
	// starts as what the kernel knows and is cleared for good by the
	// first segmented send the kernel refuses.
	gso atomic.Bool
	// gro is whether the socket took UDP_GRO at Listen, so that one
	// receive may return a run. Every receive then goes through rmu.
	gro bool

	rmu sync.Mutex
	oob [groOOB]byte // guarded by rmu; a receive's control messages
	// ReadFrom hands a run out one datagram per call: it receives into
	// stage (built on first use) and keeps in rest, from restFrom, what
	// it has not returned yet.
	stage    []byte         // guarded by rmu
	rest     []byte         // guarded by rmu
	restSeg  int            // guarded by rmu
	restFrom netip.AddrPort // guarded by rmu
}

// unmap turns an IPv4-mapped IPv6 address back into plain IPv4.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// resolve maps a "host:port" destination to the socket's address form,
// resolving it the first time the peer is written to.
func (c *conn) resolve(addr string) (netip.AddrPort, error) {
	c.mu.Lock()
	ap, ok := c.dst[addr]
	c.mu.Unlock()
	if ok {
		return ap, nil
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("udpnet: resolve %q: %w", addr, err) //lint:allow hotalloc unresolvable destinations are the cold path
	}
	// ResolveUDPAddr yields IPv4 in 16-byte form; an IPv4 socket only
	// takes the unmapped address.
	ap = unmap(ua.AddrPort())
	c.mu.Lock()
	if len(c.dst) >= maxPeers {
		clear(c.dst)
	}
	c.dst[addr] = ap
	c.mu.Unlock()
	return ap, nil
}

// sourceString renders a datagram's source exactly as net.UDPAddr's
// String does (IPv4-mapped addresses print as IPv4), formatting it the
// first time the peer is heard from.
func (c *conn) sourceString(ap netip.AddrPort) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	from, ok := c.src[ap]
	if !ok {
		from = unmap(ap).String()
		if len(c.src) >= maxPeers {
			clear(c.src)
		}
		c.src[ap] = from
	}
	return from
}

//swift:hotpath
func (c *conn) WriteTo(p []byte, addr string) error {
	ap, err := c.resolve(addr)
	if err != nil {
		return err
	}
	_, err = c.uc.WriteToUDPAddrPort(p, ap)
	if err == nil {
		c.host.pktsOut.Add(1)
		c.host.bytesOut.Add(int64(len(p)))
	}
	return err
}

// WriteSegments sends b to addr as datagrams of seg bytes, the last
// possibly shorter: one UDP_SEGMENT sendmsg per MaxRun bytes or
// MaxSegments datagrams, whichever comes first. Once the kernel refuses a
// segmented send (EIO where the device cannot checksum for it, EINVAL on a
// path it cannot segment for) the conn sends every run datagram by
// datagram, starting with the rest of this one.
//
//swift:hotpath
func (c *conn) WriteSegments(b []byte, seg int, addr string) error {
	if seg <= 0 || seg >= len(b) {
		return c.WriteTo(b, addr)
	}
	ap, err := c.resolve(addr)
	if err != nil {
		return err
	}
	whole := min(transport.MaxRun/seg, transport.MaxSegments) * seg
	for len(b) > seg && c.gso.Load() {
		run := b[:min(whole, len(b))]
		var oob [segmentOOB]byte
		if _, _, err := c.uc.WriteMsgUDPAddrPort(run, segmentCmsg(oob[:], seg), ap); err != nil {
			c.gso.Store(false)
			break
		}
		c.host.pktsOut.Add(int64(segments(len(run), seg)))
		c.host.bytesOut.Add(int64(len(run)))
		b = b[len(run):]
	}
	for len(b) > 0 {
		var dgram []byte
		dgram, b = transport.NextSegment(b, seg)
		if _, err := c.uc.WriteToUDPAddrPort(dgram, ap); err != nil {
			return err
		}
		c.host.pktsOut.Add(1)
		c.host.bytesOut.Add(int64(len(dgram)))
	}
	return nil
}

// segments is how many datagrams of seg bytes an n-byte run holds.
func segments(n, seg int) int {
	if n == 0 || seg <= 0 {
		return 1
	}
	return (n + seg - 1) / seg
}

//swift:hotpath
func (c *conn) ReadFrom(p []byte) (int, string, error) {
	if !c.gro {
		n, ap, err := c.uc.ReadFromUDPAddrPort(p)
		if err != nil {
			return n, "", timeoutErr(err)
		}
		c.host.pktsIn.Add(1)
		c.host.bytesIn.Add(int64(n))
		return n, c.sourceString(ap), nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if len(c.rest) == 0 {
		if c.stage == nil {
			c.stage = make([]byte, transport.RunBytes) //lint:allow hotalloc one receive buffer per conn, built on its first ReadFrom
		}
		n, seg, ap, err := c.receiveLocked(c.stage)
		if err != nil {
			return 0, "", err
		}
		c.rest, c.restSeg, c.restFrom = c.stage[:n], seg, ap
	}
	var dgram []byte
	dgram, c.rest = transport.NextSegment(c.rest, c.restSeg)
	return copy(p, dgram), c.sourceString(c.restFrom), nil
}

// ReadSegments receives one run, straight into p when p holds
// transport.RunBytes. A run ReadFrom has begun to hand out comes first.
//
//swift:hotpath
func (c *conn) ReadSegments(p []byte) (int, int, string, error) {
	if !c.gro || len(p) < transport.RunBytes {
		n, from, err := c.ReadFrom(p)
		return n, n, from, err
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if len(c.rest) > 0 {
		n := copy(p, c.rest)
		c.rest = c.rest[:0]
		return n, c.restSeg, c.sourceString(c.restFrom), nil
	}
	n, seg, ap, err := c.receiveLocked(p)
	if err != nil {
		return 0, 0, "", err
	}
	return n, seg, c.sourceString(ap), nil
}

// receiveLocked receives one run into p and counts its datagrams. A
// datagram that arrived alone is a run of one.
//
//swift:hotpath
func (c *conn) receiveLocked(p []byte) (n, seg int, from netip.AddrPort, err error) {
	n, oobn, _, from, err := c.uc.ReadMsgUDPAddrPort(p, c.oob[:])
	if err != nil {
		return 0, 0, from, timeoutErr(err)
	}
	if seg = groSegment(c.oob[:oobn]); seg <= 0 || seg > n {
		seg = n
	}
	c.host.pktsIn.Add(int64(segments(n, seg)))
	c.host.bytesIn.Add(int64(n))
	return n, seg, from, nil
}

// timeoutErr maps a socket's deadline expiry to transport.ErrTimeout.
func timeoutErr(err error) error {
	if te, ok := err.(net.Error); ok && te.Timeout() {
		return transport.ErrTimeout
	}
	return err
}

func (c *conn) SetReadDeadline(t time.Time) error { return c.uc.SetReadDeadline(t) }

func (c *conn) LocalAddr() string { return c.addr }

// Medium reports the bound interface's datagram ceiling and the receive
// buffer the kernel granted this socket.
func (c *conn) Medium() transport.Medium { return c.medium }

func (c *conn) Close() error { return c.uc.Close() }
