package transport

import (
	"errors"
	"testing"
	"time"
)

func TestSplitJoinAddr(t *testing.T) {
	cases := []struct {
		addr       string
		host, port string
		ok         bool
	}{
		{"host:7070", "host", "7070", true},
		{"a.b.c:0", "a.b.c", "0", true},
		{"noport", "", "", false},
		{":", "", "", true},
		{"h:p:q", "h:p", "q", true}, // last colon wins
	}
	for _, c := range cases {
		h, p, ok := SplitAddr(c.addr)
		if ok != c.ok || h != c.host || p != c.port {
			t.Errorf("SplitAddr(%q) = (%q,%q,%v), want (%q,%q,%v)",
				c.addr, h, p, ok, c.host, c.port, c.ok)
		}
	}
	if JoinAddr("h", "1") != "h:1" {
		t.Fatal("join wrong")
	}
	// Round trip.
	h, p, ok := SplitAddr(JoinAddr("my-host", "40001"))
	if !ok || h != "my-host" || p != "40001" {
		t.Fatal("round trip failed")
	}
}

type fakeTimeoutErr struct{}

func (fakeTimeoutErr) Error() string { return "fake" }
func (fakeTimeoutErr) Timeout() bool { return true }

func TestIsTimeout(t *testing.T) {
	if !IsTimeout(ErrTimeout) {
		t.Fatal("ErrTimeout not a timeout")
	}
	if !IsTimeout(fakeTimeoutErr{}) {
		t.Fatal("net-style timeout not recognized")
	}
	if IsTimeout(ErrClosed) || IsTimeout(errors.New("other")) || IsTimeout(nil) {
		t.Fatal("false positive")
	}
}

// plainConn is a PacketConn that reports nothing of its medium;
// reportingConn adds Medium.
type plainConn struct{}

func (plainConn) WriteTo([]byte, string) error         { return nil }
func (plainConn) ReadFrom([]byte) (int, string, error) { return 0, "", ErrClosed }
func (plainConn) SetReadDeadline(time.Time) error      { return nil }
func (plainConn) LocalAddr() string                    { return "plain:0" }
func (plainConn) Close() error                         { return nil }

type reportingConn struct {
	plainConn
	m Medium
}

func (c reportingConn) Medium() Medium { return c.m }

// embedWrap is a decorator the way callers write them: it embeds the
// interface and so hides every method the interface does not list.
type embedWrap struct {
	PacketConn
	sent int
}

// fieldWrap holds its conn in a named field; nothing is promoted from
// it, so MediumOf must not look inside.
type fieldWrap struct {
	plainConn
	PacketConn PacketConn
}

func TestMediumOf(t *testing.T) {
	m := Medium{MaxDatagram: 9000, RecvBuffer: 1 << 20}
	inner := reportingConn{m: m}
	for _, c := range []struct {
		name string
		conn PacketConn
		want Medium
	}{
		{"reporter", inner, m},
		{"embedding struct", embedWrap{PacketConn: inner}, m},
		{"pointer to one", &embedWrap{PacketConn: inner}, m},
		{"two decorators deep", &embedWrap{PacketConn: embedWrap{PacketConn: inner}}, m},
		{"nil conn", nil, Medium{}},
		{"no report", plainConn{}, Medium{}},
		{"decorated no report", &embedWrap{PacketConn: plainConn{}}, Medium{}},
		{"decorator around nil", &embedWrap{}, Medium{}},
		{"conn in a named field", fieldWrap{PacketConn: inner}, Medium{}},
		{"nil pointer to wrapper", (*embedWrap)(nil), Medium{}},
	} {
		if got := MediumOf(c.conn); got != c.want {
			t.Errorf("%s: MediumOf = %+v, want %+v", c.name, got, c.want)
		}
	}
}
