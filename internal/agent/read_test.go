package agent

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"swift/internal/wire"
)

// The read-serving tests drive a session's serveRead on the burst rig:
// one TRead dispatched by hand, the data packets it sent recorded by the
// sink conn, and the store reads it made counted by the rig's object.

// read has the rig's session serve [off, off+n) and returns the packets
// it sent and the number of store reads it made.
func (r *burstRig) read(off, n int64) ([]wire.Packet, int64) {
	r.t.Helper()
	before := r.obj.reads.Load()
	sent := r.deliver(&wire.Packet{Header: wire.Header{Type: wire.TRead, ReqID: 1, Offset: off, Length: uint32(n)}})
	return sent, r.obj.reads.Load() - before
}

// seed writes content at offset zero of the rig's object.
func (r *burstRig) seed(content []byte) {
	r.t.Helper()
	if _, err := r.obj.WriteAt(content, 0); err != nil {
		r.t.Fatal(err)
	}
}

// reassemble checks that sent is the data of [off, off+n), in order, with
// FLast on the last packet only, and returns its bytes.
func reassemble(t *testing.T, sent []wire.Packet, off, n int64) []byte {
	t.Helper()
	var got []byte
	for i, p := range sent {
		if p.Type != wire.TData {
			t.Fatalf("packet %d is %v, want data", i, p.Type)
		}
		if p.Offset != off+int64(len(got)) || int(p.Length) != len(p.Payload) {
			t.Fatalf("packet %d covers [%d,+%d), want it to start at %d", i, p.Offset, p.Length, off+int64(len(got)))
		}
		if last := i == len(sent)-1; (p.Flags&wire.FLast != 0) != last {
			t.Fatalf("packet %d of %d: flags %d", i, len(sent), p.Flags)
		}
		got = append(got, p.Payload...)
	}
	if int64(len(got)) != n {
		t.Fatalf("%d bytes sent, want %d", len(got), n)
	}
	return got
}

// TestReadBurstOneStoreCall pins how many store reads and datagrams a
// read burst costs. A default burst (wire.BurstPackets full payloads) is
// one store read on a base session and on a jumbo one, and leaves as
// full datagrams; a longer burst is one store read per default burst,
// and its datagrams are full but the last wherever it starts. The
// modeled installation's 8 KiB ReadChunk still reads, and packetises, in
// 8 KiB pieces.
func TestReadBurstOneStoreCall(t *testing.T) {
	const (
		base  = wire.BurstPackets * wire.MaxPayload
		jumbo = wire.BurstPackets * wire.JumboPayload
	)
	cases := []struct {
		name    string
		cfg     Config
		payload int
		off, n  int64
		reads   int64
		// datagrams is the packet count; full says every packet but the
		// last carries a whole payload.
		datagrams int
		full      bool
	}{
		{"base default burst", Config{}, wire.MaxPayload, 0, base, 1, wire.BurstPackets, true},
		{"jumbo default burst", Config{}, wire.JumboPayload, 0, jumbo, 1, wire.BurstPackets, true},
		{"three base bursts at an odd offset, the last short", Config{}, wire.MaxPayload, 1000, 3*base - 100, 3, 3 * wire.BurstPackets, true},
		{"three jumbo bursts", Config{}, wire.JumboPayload, 0, 3 * jumbo, 3, 3 * wire.BurstPackets, true},
		{"a 4 KiB read", Config{}, wire.JumboPayload, 8192, 4096, 1, 1, true},
		{"a negative ReadChunk is the default", Config{ReadChunk: -1}, wire.MaxPayload, 0, base, 1, wire.BurstPackets, true},
		// 57288 bytes in 8 KiB pieces: six pieces of six full packets and
		// an 8-byte runt, then 8136 bytes as five full packets and 1316.
		{"8 KiB ReadChunk", Config{ReadChunk: 8192}, wire.MaxPayload, 0, base, 7, 48, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newPayloadRig(t, tc.cfg, tc.payload)
			content := make([]byte, tc.off+tc.n)
			rand.New(rand.NewSource(tc.n)).Read(content)
			r.seed(content)
			sent, reads := r.read(tc.off, tc.n)
			if reads != tc.reads {
				t.Errorf("%d store reads, want %d", reads, tc.reads)
			}
			if !bytes.Equal(reassemble(t, sent, tc.off, tc.n), content[tc.off:]) {
				t.Fatal("the burst's bytes are not the store's")
			}
			if len(sent) != tc.datagrams {
				t.Errorf("%d datagrams, want %d", len(sent), tc.datagrams)
			}
			for i, p := range sent[:len(sent)-1] {
				if tc.full && len(p.Payload) != tc.payload {
					t.Fatalf("datagram %d of %d carries %d bytes, want a full %d", i, len(sent), len(p.Payload), tc.payload)
				}
			}
			// The session's read buffers are sized to what was read, at
			// most one chunk each, and a one-chunk burst uses only the
			// first.
			for i, b := range r.s.rbuf {
				if limit := min(r.s.chunk, tc.n); int64(cap(b)) > limit {
					t.Errorf("read buffer %d holds %d bytes, want at most %d", i, cap(b), limit)
				}
			}
			if tc.n <= r.s.chunk && r.s.rbuf[1] != nil {
				t.Errorf("a one-chunk burst grew the second read buffer to %d bytes", cap(r.s.rbuf[1]))
			}
		})
	}
}

// TestShedBurstStopsStoreReads pins that a read burst whose deadline
// passes mid-stream stops reading the store, not only sending: the
// first of three 8 KiB chunks outlasts the budget, so the agent makes
// that one store read, sends no data and pushes back.
func TestShedBurstStopsStoreReads(t *testing.T) {
	const chunk = 8192
	r := newBurstRig(t, Config{ReadChunk: chunk})
	r.seed(fill(0xCD, 3*chunk))
	r.obj.stall = 20 * time.Millisecond
	sent := r.deliver(&wire.Packet{
		Header:   wire.Header{Type: wire.TRead, ReqID: 1, Length: 3 * chunk},
		Deadline: 2 * time.Millisecond,
	})
	if reads := r.obj.reads.Load(); reads != 1 {
		t.Errorf("%d store reads, want 1", reads)
	}
	wantSent(t, "shed burst", sent, wire.TPushback)
	info, err := wire.ParsePushback(sent[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Reason != wire.PushDeadlineExpired {
		t.Errorf("pushback reason %v, want %v", info.Reason, wire.PushDeadlineExpired)
	}
}

// TestServeReadAllocs pins that serving a default read burst allocates
// nothing once the session's read buffer has grown: no channel, no
// goroutine, no span note for an untraced request.
func TestServeReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, payload := range []int{wire.MaxPayload, wire.JumboPayload} {
		r := newPayloadRig(t, Config{}, payload)
		r.conn.discard = true
		burst := int64(wire.BurstPackets * payload)
		r.seed(fill(0xEF, int(burst)))
		pkt := wire.Packet{Header: wire.Header{Type: wire.TRead, ReqID: 1, Handle: r.s.handle, Length: uint32(burst)}}
		serve := func() { r.s.dispatch(&pkt, burstClient, r.now) }
		serve() // grow the read buffer
		if r.conn.dropped != wire.BurstPackets {
			t.Fatalf("%d-byte payload: %d datagrams per burst, want %d", payload, r.conn.dropped, wire.BurstPackets)
		}
		if allocs := testing.AllocsPerRun(100, serve); allocs != 0 {
			t.Errorf("%d-byte payload: a default read burst allocated %v times, want 0", payload, allocs)
		}
	}
}

// TestRecycledChunkBufferZeroFills pins the serve-loop recycling
// invariant: the chunk buffers live for the whole session, so a burst
// that reads past EOF must see zeros even when an earlier burst filled
// the same buffer with data, and even when that burst was long and this
// one is short.
func TestRecycledChunkBufferZeroFills(t *testing.T) {
	const burst = wire.BurstPackets * wire.MaxPayload
	cases := []struct {
		name   string
		size   int64 // object bytes, all read by the first burst
		off, n int64 // the second burst
	}{
		{"short burst past EOF after a short one", 512, 4096, 256},
		{"short burst across EOF after a long one", 2 * burst, 2*burst - 100, 300},
		{"short burst past EOF after a long one", 2 * burst, 3 * burst, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newBurstRig(t, Config{})
			r.seed(fill(0xAB, int(tc.size)))
			// The pool hands its two buffers out in turn: serving the
			// first burst twice leaves data in both.
			for range 2 {
				sent, _ := r.read(0, tc.size)
				reassemble(t, sent, 0, tc.size)
			}
			sent, _ := r.read(tc.off, tc.n)
			for i, b := range reassemble(t, sent, tc.off, tc.n) {
				want := byte(0)
				if tc.off+int64(i) < tc.size {
					want = 0xAB
				}
				if b != want {
					t.Fatalf("byte %d = %#x, want %#x (object ends at %d)", tc.off+int64(i), b, want, tc.size)
				}
			}
		})
	}
}
