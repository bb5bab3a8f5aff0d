package agent

import (
	"bytes"
	"math/rand"
	"testing"

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
			// The pooled buffers are sized to what was read, at most one
			// chunk each.
			for range 2 {
				b := <-r.s.readFree
				if limit := min(r.s.chunk, tc.n); int64(cap(b)) > limit {
					t.Errorf("a pooled buffer holds %d bytes, want at most %d", cap(b), limit)
				}
				r.s.readFree <- b
			}
		})
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
