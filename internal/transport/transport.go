// Package transport defines the datagram abstraction Swift's protocol runs
// over. Two implementations exist: udpnet (real UDP sockets, for deployed
// use) and memnet (an in-memory network with modeled Ethernet segments,
// host CPU costs, bounded queues and packet loss, for the measured
// experiments). The storage agents and the distribution agent are written
// against these interfaces and run unchanged over either.
package transport

import (
	"errors"
	"reflect"
	"strings"
	"time"
)

// Sentinel errors.
var (
	// ErrTimeout is returned by ReadFrom when the read deadline passes.
	ErrTimeout = errors.New("transport: read timeout")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("transport: connection closed")
	// ErrNoRoute is returned when no path exists to the destination.
	ErrNoRoute = errors.New("transport: no route to host")
	// ErrTooLarge is returned for datagrams exceeding the medium's MTU.
	ErrTooLarge = errors.New("transport: datagram exceeds MTU")
)

// PacketConn is an unreliable, unordered datagram endpoint. Addresses are
// strings of the form "host:port".
type PacketConn interface {
	// WriteTo sends one datagram to addr. Delivery is best-effort.
	WriteTo(p []byte, addr string) error
	// ReadFrom receives one datagram into p, returning its length and
	// source address. If the datagram is longer than p it is truncated.
	// ReadFrom returns ErrTimeout when the deadline set by
	// SetReadDeadline passes.
	ReadFrom(p []byte) (n int, from string, err error)
	// SetReadDeadline bounds future ReadFrom calls. The zero time means
	// no deadline.
	SetReadDeadline(t time.Time) error
	// LocalAddr returns this endpoint's "host:port" address.
	LocalAddr() string
	// Close releases the endpoint; blocked reads return ErrClosed.
	Close() error
}

// Medium is what an endpoint's medium carries and can buffer. The zero
// value means "not known", which every caller treats as the smallest
// medium the protocol runs on.
type Medium struct {
	// MaxDatagram is the largest datagram WriteTo sends whole — without
	// ErrTooLarge and without the network fragmenting it.
	MaxDatagram int
	// RecvBuffer is how many bytes of queued datagrams the endpoint holds
	// before it drops arrivals, in the medium's own accounting. A kernel
	// socket charges a datagram about twice its length, so a sender keeps
	// no more than half of this in flight.
	RecvBuffer int
}

// MediumReporter is implemented by the endpoints that know their medium;
// both transports' do.
type MediumReporter interface {
	Medium() Medium
}

// MediumOf returns what c reports of its medium, or the zero Medium when
// it reports nothing. A decorator that embeds a PacketConn promotes only
// that interface's five methods, so MediumOf looks through an embedded
// PacketConn field exactly as promotion would have, had Medium been one
// of them: a counting or fault-injecting wrapper stays transparent to the
// size agreement without knowing it exists.
func MediumOf(c PacketConn) Medium {
	for c != nil {
		if r, ok := c.(MediumReporter); ok {
			return r.Medium()
		}
		c = embeddedConn(c)
	}
	return Medium{}
}

// embeddedConn returns the PacketConn a wrapper struct embeds, or nil.
func embeddedConn(c PacketConn) PacketConn {
	v := reflect.ValueOf(c)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil
	}
	f, ok := v.Type().FieldByName("PacketConn")
	if !ok || !f.Anonymous || len(f.Index) != 1 || f.Type != reflect.TypeOf((*PacketConn)(nil)).Elem() {
		return nil
	}
	inner, _ := v.Field(f.Index[0]).Interface().(PacketConn)
	return inner
}

// A run is consecutive datagrams to or from one peer, laid end to end in
// one buffer: every datagram seg bytes long except the last, which may be
// shorter. A conn that can move a run in one call — udpnet, through UDP
// segmentation offload and receive coalescing, and memnet, as one frame
// where its model charges the run no time — implements SegmentWriter and
// SegmentReader; WriteSegments and ReadSegments use those methods when the
// conn has them and otherwise go datagram by datagram. Either way the
// datagrams on the wire are the ones a WriteTo per datagram would send.
const (
	// MaxRun is the most bytes one segment call carries: the largest UDP
	// payload over IPv4, which is also what one GSO send may hold.
	MaxRun = 65507
	// MaxSegments is the most datagrams one segment call carries (the
	// kernel's UDP_MAX_SEGMENTS on every release that has GSO).
	MaxSegments = 64
	// RunBytes is a receive buffer that holds any run a kernel coalesces,
	// up to the largest UDP payload over IPv6.
	RunBytes = 64 << 10
)

// SegmentWriter is implemented by conns that send a run in one call.
type SegmentWriter interface {
	// WriteSegments sends b to addr as datagrams of seg bytes, the last
	// possibly shorter.
	WriteSegments(b []byte, seg int, addr string) error
}

// SegmentReader is implemented by conns that receive a run in one call.
type SegmentReader interface {
	// ReadSegments receives one run from one source into p: n bytes of
	// datagrams of seg bytes, the last possibly shorter. p should hold
	// RunBytes; a shorter p receives one datagram at a time.
	ReadSegments(p []byte) (n, seg int, from string, err error)
}

// WriteSegments sends the run b to addr: in one call when c itself
// implements SegmentWriter, otherwise one WriteTo per datagram. Unlike
// MediumOf it does not look through an embedded PacketConn, so a counting,
// recording or loss-injecting decorator sees every datagram. A run of one
// datagram is one WriteTo either way.
//
//swift:hotpath
func WriteSegments(c PacketConn, b []byte, seg int, addr string) error {
	if seg <= 0 || seg >= len(b) {
		return c.WriteTo(b, addr)
	}
	if w, ok := c.(SegmentWriter); ok {
		return w.WriteSegments(b, seg, addr)
	}
	for len(b) > 0 {
		var dgram []byte
		dgram, b = NextSegment(b, seg)
		if err := c.WriteTo(dgram, addr); err != nil {
			return err
		}
	}
	return nil
}

// ReadSegments receives one run into p: through c's own ReadSegments when
// c implements SegmentReader (not looking through decorators, as for
// WriteSegments), otherwise one ReadFrom, a run of one datagram.
//
//swift:hotpath
func ReadSegments(c PacketConn, p []byte) (n, seg int, from string, err error) {
	if r, ok := c.(SegmentReader); ok {
		return r.ReadSegments(p)
	}
	n, from, err = c.ReadFrom(p)
	return n, n, from, err
}

// NextSegment splits the first datagram off a run of seg-byte datagrams.
// A seg that is not positive, or longer than the run, makes the run one
// datagram.
func NextSegment(run []byte, seg int) (dgram, rest []byte) {
	if seg <= 0 || seg > len(run) {
		seg = len(run)
	}
	return run[:seg], run[seg:]
}

// RunBuffer is the receive buffer a loop reading c with ReadSegments
// needs for datagrams of up to datagram bytes: RunBytes when c receives
// runs, datagram otherwise.
func RunBuffer(c PacketConn, datagram int) int {
	if _, ok := c.(SegmentReader); ok {
		return RunBytes
	}
	return datagram
}

// Host is a network endpoint factory representing one machine. Port "0"
// requests an ephemeral port.
type Host interface {
	Listen(port string) (PacketConn, error)
	Name() string
}

// IsTimeout reports whether err is a read-deadline expiry from either
// transport implementation. A nil err answers at once: the errors.As
// below allocates, and receive loops ask after every receive.
func IsTimeout(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var ne interface{ Timeout() bool }
	if errors.As(err, &ne) {
		return ne.Timeout()
	}
	return false
}

// SplitAddr splits "host:port" into its components.
func SplitAddr(addr string) (host, port string, ok bool) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return "", "", false
	}
	return addr[:i], addr[i+1:], true
}

// JoinAddr composes "host:port".
func JoinAddr(host, port string) string { return host + ":" + port }
