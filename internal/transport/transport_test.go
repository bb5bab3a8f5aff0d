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

// logConn logs every datagram written to it and hands out queued ones;
// segConn adds the segment calls, logging each run.
type logConn struct {
	plainConn
	sent  [][]byte
	queue [][]byte
}

func (c *logConn) WriteTo(p []byte, _ string) error {
	c.sent = append(c.sent, append([]byte(nil), p...))
	return nil
}

func (c *logConn) ReadFrom(p []byte) (int, string, error) {
	if len(c.queue) == 0 {
		return 0, "", ErrTimeout
	}
	n := copy(p, c.queue[0])
	c.queue = c.queue[1:]
	return n, "peer:1", nil
}

type segConn struct {
	logConn
	runs []int // seg of each run written
}

func (c *segConn) WriteSegments(b []byte, seg int, addr string) error {
	c.runs = append(c.runs, seg)
	return c.WriteTo(b, addr)
}

func (c *segConn) ReadSegments(p []byte) (int, int, string, error) {
	n, from, err := c.ReadFrom(p)
	return n, 1, from, err
}

// TestSegmentCalls: a conn with the segment calls gets whole runs, one
// without them — including a decorator embedding one that has them — gets
// one WriteTo per datagram, and a run of one datagram is a plain WriteTo.
func TestSegmentCalls(t *testing.T) {
	run := []byte("aaabbbcc")
	sc := &segConn{}
	if err := WriteSegments(sc, run, 3, "peer:1"); err != nil || len(sc.runs) != 1 || sc.runs[0] != 3 {
		t.Fatalf("segment conn: runs %v, err %v; want one run of 3-byte datagrams", sc.runs, err)
	}
	if err := WriteSegments(sc, run[:3], 3, "peer:1"); err != nil || len(sc.runs) != 1 || len(sc.sent) != 2 {
		t.Fatalf("a run of one went through WriteSegments (runs %v)", sc.runs)
	}
	lc := &logConn{}
	if err := WriteSegments(lc, run, 3, "peer:1"); err != nil {
		t.Fatal(err)
	}
	if len(lc.sent) != 3 || string(lc.sent[0]) != "aaa" || string(lc.sent[1]) != "bbb" || string(lc.sent[2]) != "cc" {
		t.Errorf("plain conn: sent %q, want the run's three datagrams", lc.sent)
	}
	inner := &segConn{}
	wrapped := &embedWrap{PacketConn: inner}
	if err := WriteSegments(wrapped, run, 3, "peer:1"); err != nil || len(inner.runs) != 0 || len(inner.sent) != 3 {
		t.Errorf("embedding decorator: inner saw runs %v and %d datagrams; want no run and 3 datagrams", inner.runs, len(inner.sent))
	}

	// Receiving: a plain conn's run is its one datagram; an embedded
	// segment reader is not looked through.
	inner.queue = [][]byte{[]byte("xyz")}
	buf := make([]byte, 16)
	if n, seg, from, err := ReadSegments(wrapped, buf); err != nil || n != 3 || seg != 3 || from != "peer:1" {
		t.Errorf("decorator: run of %d bytes in %d-byte datagrams from %q, err %v; want one 3-byte datagram", n, seg, from, err)
	}
	inner.queue = [][]byte{[]byte("xyz")}
	if _, seg, _, _ := ReadSegments(inner, buf); seg != 1 {
		t.Errorf("segment reader's own seg not returned: %d", seg)
	}
	if RunBuffer(inner, 1400) != RunBytes || RunBuffer(wrapped, 1400) != 1400 {
		t.Error("RunBuffer does not follow the conn's own ReadSegments")
	}
}

func TestNextSegment(t *testing.T) {
	for _, c := range []struct {
		run         string
		seg         int
		dgram, rest string
	}{
		{"aaabbb", 3, "aaa", "bbb"},
		{"aab", 2, "aa", "b"},
		{"ab", 5, "ab", ""},
		{"ab", 0, "ab", ""},
		{"", 3, "", ""},
	} {
		d, r := NextSegment([]byte(c.run), c.seg)
		if string(d) != c.dgram || string(r) != c.rest {
			t.Errorf("NextSegment(%q, %d) = %q, %q; want %q, %q", c.run, c.seg, d, r, c.dgram, c.rest)
		}
	}
}
