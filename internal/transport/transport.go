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

// Host is a network endpoint factory representing one machine. Port "0"
// requests an ephemeral port.
type Host interface {
	Listen(port string) (PacketConn, error)
	Name() string
}

// IsTimeout reports whether err is a read-deadline expiry from either
// transport implementation.
func IsTimeout(err error) bool {
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
