package wire

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"swift/internal/transport"
)

// sinkConn logs every datagram written to it, with its destination.
type sinkConn struct {
	dgrams [][]byte
	to     []string
}

func (c *sinkConn) WriteTo(p []byte, addr string) error {
	c.dgrams = append(c.dgrams, bytes.Clone(p))
	c.to = append(c.to, addr)
	return nil
}
func (c *sinkConn) ReadFrom([]byte) (int, string, error) { return 0, "", transport.ErrClosed }
func (c *sinkConn) SetReadDeadline(time.Time) error      { return nil }
func (c *sinkConn) LocalAddr() string                    { return "sink:1" }
func (c *sinkConn) Close() error                         { return nil }

// runConn also sends runs, logging each call as count x seg.
type runConn struct {
	sinkConn
	calls []string
}

func (c *runConn) WriteSegments(b []byte, seg int, addr string) error {
	c.calls = append(c.calls, fmt.Sprintf("%dx%d", (len(b)+seg-1)/seg, seg))
	for len(b) > 0 {
		var d []byte
		d, b = transport.NextSegment(b, seg)
		c.WriteTo(d, addr)
	}
	return nil
}

func dataPacket(off int64, n int) *Packet {
	return &Packet{Header: Header{Type: TData, ReqID: 9, Offset: off, Length: uint32(n)}, Payload: bytes.Repeat([]byte{byte(off)}, n)}
}

// TestBatchRuns: equal data packets for one peer leave as one run, which a
// shorter packet ends and sends; a control packet, another peer or a
// larger packet sends what was held first; every datagram is the one
// AppendPacket makes.
func TestBatchRuns(t *testing.T) {
	c := &runConn{}
	b := NewBatch(c, JumboPacket)
	var want [][]byte
	send := func(p *Packet, to string) {
		t.Helper()
		if err := b.Send(p, to); err != nil {
			t.Fatal(err)
		}
		d, _ := Marshal(p)
		want = append(want, d)
	}
	// step checks the segment calls so far and how many datagrams are
	// out; a run of one datagram is a plain WriteTo.
	step := func(what string, sent int, calls ...string) {
		t.Helper()
		if got := strings.Join(c.calls, " "); got != strings.Join(calls, " ") || len(c.dgrams) != sent {
			t.Fatalf("%s: calls %q and %d datagrams, want %q and %d", what, got, len(c.dgrams), strings.Join(calls, " "), sent)
		}
	}
	for i := 0; i < 3; i++ {
		send(dataPacket(int64(i), JumboPayload), "a:1")
	}
	step("three full packets", 0)
	send(dataPacket(3, 100), "a:1")
	step("a short packet", 4, "4x8228")
	send(dataPacket(4, JumboPayload), "a:1")
	send(&Packet{Header: Header{Type: TWriteAck, ReqID: 9}}, "a:1")
	step("an ack behind a data packet", 6, "4x8228", "2x8228")
	send(dataPacket(5, 100), "a:1")
	step("a data packet alone", 6, "4x8228", "2x8228")
	send(dataPacket(6, 200), "a:1")
	step("a larger packet behind it", 7, "4x8228", "2x8228")
	send(dataPacket(7, 200), "b:1")
	step("another peer", 8, "4x8228", "2x8228")
	send(dataPacket(8, 200), "b:1")
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	step("flush", 10, "4x8228", "2x8228", "2x236")
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	step("flush with nothing held", 10, "4x8228", "2x8228", "2x236")
	if len(c.dgrams) != len(want) {
		t.Fatalf("%d datagrams sent, want %d", len(c.dgrams), len(want))
	}
	for i := range want {
		if !bytes.Equal(c.dgrams[i], want[i]) {
			t.Fatalf("datagram %d differs from AppendPacket's", i)
		}
	}
	if got := strings.Join(c.to, " "); got != strings.Repeat("a:1 ", 8)+"b:1 b:1" {
		t.Fatalf("destinations %v", c.to)
	}
}

// TestBatchFullRun: a run is sent when another datagram would not fit
// one send, by bytes or by count.
func TestBatchFullRun(t *testing.T) {
	for _, tc := range []struct {
		payload, packets int
		calls            string
	}{
		{JumboPayload, 15, "7x8228 7x8228"}, // bytes: 7 x 8228 = 57596
		{MaxPayload, 92, "46x1400 46x1400"}, // bytes: 46 x 1400 = 64400
		{100, 130, "64x136 64x136"},         // count
	} {
		c := &runConn{}
		b := NewBatch(c, JumboPacket)
		for i := 0; i < tc.packets; i++ {
			if err := b.Send(dataPacket(int64(i), tc.payload), "a:1"); err != nil {
				t.Fatal(err)
			}
		}
		if got := strings.Join(c.calls, " "); got != tc.calls {
			t.Errorf("%d packets of %d bytes: calls %q before any flush, want %q", tc.packets, tc.payload, got, tc.calls)
		}
		b.Flush()
		if len(c.dgrams) != tc.packets {
			t.Errorf("%d datagrams sent of %d", len(c.dgrams), tc.packets)
		}
	}
}

// TestBatchPlainConn: over a conn without the segment calls nothing is
// held back: each packet is one WriteTo, as before batching.
func TestBatchPlainConn(t *testing.T) {
	c := &sinkConn{}
	b := NewBatch(c, JumboPacket)
	for i := 0; i < 3; i++ {
		if err := b.Send(dataPacket(int64(i), JumboPayload), "a:1"); err != nil {
			t.Fatal(err)
		}
		if len(c.dgrams) != i+1 {
			t.Fatalf("packet %d held back on a conn that sends one datagram per call", i)
		}
	}
	if err := b.Send(&Packet{Header: Header{Type: TData}, Payload: make([]byte, JumboPayload+1)}, "a:1"); err != ErrOversize {
		t.Fatalf("oversize packet: %v", err)
	}
	p := dataPacket(1, JumboPayload)
	allocs := testing.AllocsPerRun(100, func() {
		b.Send(p, "a:1")
		c.dgrams = c.dgrams[:0]
		c.to = c.to[:0]
	})
	if allocs > 1 { // the sink's own copy
		t.Fatalf("%v allocations per Send", allocs)
	}
}
