package agent

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/wire"
)

// The burst-lifecycle tests drive a session's handlers directly, on a
// conn that only records what is sent and a clock the test steps by
// hand: every step does what session.run does for one datagram (or one
// read-deadline tick) — dispatch at now, then checkWrites at now — so
// each timing rule is pinned without a sleep.

// sinkConn records every packet written to it — or, with discard set,
// only counts them, for timing and allocation measurements. Nothing is
// ever received on it: the tests call the handlers themselves.
type sinkConn struct {
	sent    []wire.Packet
	discard bool
	dropped int
}

func (c *sinkConn) WriteTo(p []byte, addr string) error {
	if c.discard {
		c.dropped++
		return nil
	}
	var pkt wire.Packet
	if err := wire.Unmarshal(p, &pkt); err != nil {
		return err
	}
	pkt.Payload = append([]byte(nil), pkt.Payload...)
	c.sent = append(c.sent, pkt)
	return nil
}
func (c *sinkConn) ReadFrom([]byte) (int, string, error) { return 0, "", transport.ErrClosed }
func (c *sinkConn) SetReadDeadline(time.Time) error      { return nil }
func (c *sinkConn) LocalAddr() string                    { return "sink:1" }
func (c *sinkConn) Close() error                         { return nil }

// offlineHost names the agent in log lines; nothing listens on it.
type offlineHost struct{}

func (offlineHost) Listen(string) (transport.PacketConn, error) { return nil, transport.ErrClosed }
func (offlineHost) Name() string                                { return "offline" }

// rigObject is the rig's store object: it refuses writes while fail is
// set, counts the reads made of it, and holds the first read for stall.
type rigObject struct {
	store.Object
	fail  bool
	stall time.Duration
	reads atomic.Int64
}

func (o *rigObject) WriteAt(p []byte, off int64) (int, error) {
	if o.fail {
		return 0, errors.New("store full")
	}
	return o.Object.WriteAt(p, off)
}

func (o *rigObject) ReadAt(p []byte, off int64) (int, error) {
	if o.reads.Add(1) == 1 {
		time.Sleep(o.stall)
	}
	return o.Object.ReadAt(p, off)
}

const burstClient = "client:9"

// burstRig is one session with no goroutine behind it, a recording conn
// and a hand-stepped clock.
type burstRig struct {
	t    testing.TB
	s    *session
	conn *sinkConn
	obj  *rigObject
	now  time.Time
}

func newBurstRig(t testing.TB, cfg Config) *burstRig {
	return newPayloadRig(t, cfg, wire.MaxPayload)
}

// newPayloadRig is a rig whose session agreed on payload-byte data
// packets at open.
func newPayloadRig(t testing.TB, cfg Config, payload int) *burstRig {
	t.Helper()
	cfg.fill()
	obj, err := store.NewMem().Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	a := &Agent{host: offlineHost{}, cfg: cfg, sessions: make(map[uint64]*session), tel: newAgentTelemetry(&cfg)}
	r := &burstRig{t: t, conn: &sinkConn{}, obj: &rigObject{Object: obj}, now: time.Unix(1_000_000, 0)}
	r.s = newSession(a, 7, r.obj, r.conn, payload)
	return r
}

// deliver hands the session one datagram at the current instant and
// returns what it sent in response.
func (r *burstRig) deliver(p *wire.Packet) []wire.Packet {
	r.conn.sent = nil
	p.Handle = r.s.handle
	r.s.dispatch(p, burstClient, r.now)
	r.s.checkWrites(r.now)
	return r.conn.sent
}

// advance moves the clock and runs the read-deadline tick.
func (r *burstRig) advance(d time.Duration) []wire.Packet {
	r.conn.sent = nil
	r.now = r.now.Add(d)
	r.s.checkWrites(r.now)
	return r.conn.sent
}

// ticks runs n read-deadline ticks, ResendCheck apart.
func (r *burstRig) ticks(n int) []wire.Packet {
	var sent []wire.Packet
	for i := 0; i < n; i++ {
		sent = append(sent, r.advance(r.s.agent.cfg.ResendCheck)...)
	}
	return sent
}

func (r *burstRig) announce(id uint32, off, n int64) []wire.Packet {
	return r.deliver(&wire.Packet{Header: wire.Header{Type: wire.TWrite, ReqID: id, Offset: off, Length: uint32(n)}})
}

func (r *burstRig) data(id uint32, off int64, payload []byte) []wire.Packet {
	return r.deliver(&wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: id, Offset: off, Length: uint32(len(payload))},
		Payload: payload,
	})
}

// content reads the whole object back.
func (r *burstRig) content() []byte {
	r.t.Helper()
	size, err := r.obj.Size()
	if err != nil {
		r.t.Fatal(err)
	}
	b := make([]byte, size)
	if _, err := r.obj.ReadAt(b, 0); err != nil && !isEOF(err) {
		r.t.Fatal(err)
	}
	return b
}

func packetTypes(ps []wire.Packet) []wire.Type {
	out := make([]wire.Type, len(ps))
	for i, p := range ps {
		out[i] = p.Type
	}
	return out
}

// wantSent fails unless exactly the given packet types were sent.
func wantSent(t *testing.T, step string, got []wire.Packet, want ...wire.Type) {
	t.Helper()
	if !slices.Equal(packetTypes(got), want) {
		t.Fatalf("%s: sent %v, want %v", step, packetTypes(got), want)
	}
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// burstTimes is the configuration every lifecycle case runs under.
var burstTimes = Config{
	ResendCheck: 10 * time.Millisecond,
	ResendAfter: 40 * time.Millisecond,
	DoneTTL:     time.Second,
}

func TestWriteBurstLifecycle(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *burstRig)
	}{
		{"duplicate announce inside DoneTTL is re-acked, after it starts a fresh burst", func(t *testing.T, r *burstRig) {
			wantSent(t, "announce", r.announce(1, 0, 100))
			wantSent(t, "data", r.data(1, 0, fill('a', 100)), wire.TWriteAck)
			wantSent(t, "at DoneTTL", r.advance(time.Second))
			acks := r.announce(1, 0, 100)
			wantSent(t, "duplicate at DoneTTL", acks, wire.TWriteAck)
			if acks[0].ReqID != 1 || acks[0].Offset != 0 || acks[0].Length != 100 {
				t.Fatalf("re-ack = %+v", acks[0].Header)
			}
			if len(r.s.open) != 0 {
				t.Fatal("a re-acked duplicate opened a burst")
			}
			wantSent(t, "past DoneTTL", r.advance(time.Millisecond))
			if len(r.s.writes) != 0 {
				t.Fatalf("%d bursts remembered past DoneTTL", len(r.s.writes))
			}
			wantSent(t, "announce after reap", r.announce(1, 0, 100))
			if len(r.s.open) != 1 || r.s.writes[1].done {
				t.Fatal("announce after reap did not start a fresh burst")
			}
		}},
		{"completed bursts are reaped by ticks alone", func(t *testing.T, r *burstRig) {
			for id := uint32(1); id <= 50; id++ {
				r.announce(id, 0, 10)
				wantSent(t, "data", r.data(id, 0, fill('x', 10)), wire.TWriteAck)
				r.advance(10 * time.Millisecond)
			}
			if len(r.s.writes) != 50 {
				t.Fatalf("remembered %d bursts, want 50", len(r.s.writes))
			}
			// The first completed at t=0; they expire one per 10 ms from
			// t=1s+, and 500 ms have passed.
			r.advance(500*time.Millisecond + time.Millisecond)
			if len(r.s.writes) != 49 {
				t.Fatalf("remembered %d bursts just past the first expiry, want 49", len(r.s.writes))
			}
			r.advance(245 * time.Millisecond)
			if got := len(r.s.writes); got != 25 {
				t.Fatalf("remembered %d bursts mid-way, want 25", got)
			}
			r.advance(time.Second)
			if len(r.s.writes) != 0 || len(r.s.done) != 0 || r.s.doneHead != 0 {
				t.Fatalf("after everything expired: %d remembered, queue %d/%d", len(r.s.writes), r.s.doneHead, len(r.s.done))
			}
		}},
		{"completed bursts are reaped under traffic and the queue stays bounded", func(t *testing.T, r *burstRig) {
			// One burst per millisecond for five DoneTTLs, never a tick.
			for id := uint32(1); id <= 5000; id++ {
				r.now = r.now.Add(time.Millisecond)
				r.announce(id, 0, 10)
				wantSent(t, "data", r.data(id, 0, fill('x', 10)), wire.TWriteAck)
				if live := len(r.s.writes); live > 1001 {
					t.Fatalf("burst %d: %d bursts remembered, want <= 1001", id, live)
				}
				if cap(r.s.done) > 4096 {
					t.Fatalf("burst %d: done queue grew to cap %d", id, cap(r.s.done))
				}
			}
			if live := len(r.s.writes); live != 1001 {
				t.Fatalf("steady state remembers %d bursts, want 1001", live)
			}
		}},
		{"a stalled open burst is prompted once per ResendAfter with what is missing", func(t *testing.T, r *burstRig) {
			r.announce(1, 0, 3000)
			wantSent(t, "middle third", r.data(1, 1000, fill('m', 1000)))
			wantSent(t, "before ResendAfter", r.ticks(3))
			prompt := r.ticks(1)
			wantSent(t, "at ResendAfter", prompt, wire.TResend)
			ranges, err := wire.ParseResend(prompt[0].Payload)
			if err != nil {
				t.Fatal(err)
			}
			if want := []wire.Range{{Off: 0, Len: 1000}, {Off: 2000, Len: 1000}}; !slices.Equal(ranges, want) {
				t.Fatalf("resend ranges = %v, want %v", ranges, want)
			}
			wantSent(t, "inside the next ResendAfter", r.ticks(3))
			// Progress postpones the next prompt by a full ResendAfter.
			wantSent(t, "first third", r.data(1, 0, fill('f', 1000)))
			wantSent(t, "after progress", r.ticks(3))
			prompt = r.ticks(1)
			wantSent(t, "second prompt", prompt, wire.TResend)
			ranges, _ = wire.ParseResend(prompt[0].Payload)
			if want := []wire.Range{{Off: 2000, Len: 1000}}; !slices.Equal(ranges, want) {
				t.Fatalf("second resend ranges = %v, want %v", ranges, want)
			}
			if got := r.s.agent.tel.Load(evResendPrompt, -1); got != 2 {
				t.Fatalf("resend requests counted = %d, want 2", got)
			}
			wantSent(t, "last third", r.data(1, 2000, fill('l', 1000)), wire.TWriteAck)
			want := append(append(fill('f', 1000), fill('m', 1000)...), fill('l', 1000)...)
			if !bytes.Equal(r.content(), want) {
				t.Fatal("store content differs from the three thirds")
			}
		}},
		{"the open set is swept at most once per ResendCheck", func(t *testing.T, r *burstRig) {
			r.announce(1, 0, 2000)
			r.data(1, 0, fill('a', 1000))
			r.advance(40 * time.Millisecond) // prompts, and marks a sweep
			swept := r.s.lastSweep
			// A packet for another burst 9 ms later runs checkWrites but
			// must not sweep.
			r.now = r.now.Add(9 * time.Millisecond)
			r.announce(2, 5000, 10)
			if r.s.lastSweep != swept {
				t.Fatal("open set swept again inside ResendCheck")
			}
			r.now = r.now.Add(time.Millisecond)
			r.data(2, 5000, fill('b', 10))
			if r.s.lastSweep == swept {
				t.Fatal("open set not swept on packet arrival once ResendCheck elapsed")
			}
		}},
		{"data that overtakes its announcement is replayed", func(t *testing.T, r *burstRig) {
			wantSent(t, "early second half", r.data(1, 50, fill('2', 50)))
			wantSent(t, "early first half", r.data(1, 0, fill('1', 50)))
			wantSent(t, "announce", r.announce(1, 0, 100), wire.TWriteAck)
			if want := append(fill('1', 50), fill('2', 50)...); !bytes.Equal(r.content(), want) {
				t.Fatalf("store = %q", r.content())
			}
			if w := r.s.writes[1]; w.early != nil || w.earlyBytes != 0 {
				t.Fatal("early stash kept after replay")
			}
		}},
		{"a ReqID is reusable once its burst was reaped", func(t *testing.T, r *burstRig) {
			r.announce(1, 0, 100)
			wantSent(t, "first use", r.data(1, 0, fill('a', 100)), wire.TWriteAck)
			r.advance(time.Second + time.Millisecond)
			wantSent(t, "announce reuse", r.announce(1, 200, 50))
			ack := r.data(1, 200, fill('b', 50))
			wantSent(t, "second use", ack, wire.TWriteAck)
			if ack[0].Offset != 200 || ack[0].Length != 50 {
				t.Fatalf("ack = %+v", ack[0].Header)
			}
			if !bytes.Equal(r.content()[200:], fill('b', 50)) {
				t.Fatal("second use of the ReqID did not reach the store")
			}
			// The reaped first burst must not take the live entry with it.
			r.advance(500 * time.Millisecond)
			if len(r.s.writes) != 1 {
				t.Fatalf("%d bursts remembered, want the second use only", len(r.s.writes))
			}
		}},
		{"data that is never announced is dropped after DoneTTL", func(t *testing.T, r *burstRig) {
			// A straggler for a burst reaped long ago.
			wantSent(t, "straggler", r.data(9, 0, fill('s', 500)))
			wantSent(t, "more", r.advance(400*time.Millisecond))
			wantSent(t, "second straggler", r.data(9, 500, fill('s', 500)))
			// DoneTTL runs from the last progress, not from first sight.
			wantSent(t, "DoneTTL after first sight", r.advance(700*time.Millisecond))
			if len(r.s.writes) != 1 || r.s.writes[9].earlyBytes != 1000 {
				t.Fatal("orphan dropped while still making progress")
			}
			wantSent(t, "DoneTTL after last progress", r.advance(300*time.Millisecond+time.Millisecond))
			if len(r.s.writes) != 0 || len(r.s.open) != 0 {
				t.Fatalf("orphan kept: %d remembered, %d open", len(r.s.writes), len(r.s.open))
			}
			if got := r.s.agent.tel.Load(evOrphanBurst, -1); got != 1 {
				t.Fatalf("orphan bursts counted = %d, want 1", got)
			}
			if len(r.content()) != 0 {
				t.Fatal("orphan data reached the store")
			}
		}},
		{"the burst buffer is recycled and stale bytes never reach the store", func(t *testing.T, r *burstRig) {
			r.announce(1, 0, 1000)
			first := &r.s.writes[1].data[0]
			wantSent(t, "first burst", r.data(1, 0, fill(0xAA, 1000)), wire.TWriteAck)
			if len(r.s.burstFree) != 1 {
				t.Fatalf("free list holds %d buffers after apply, want 1", len(r.s.burstFree))
			}
			r.announce(2, 5000, 800)
			if &r.s.writes[2].data[0] != first {
				t.Fatal("second burst did not reuse the first burst's buffer")
			}
			wantSent(t, "half of second burst", r.data(2, 5000, fill(0xBB, 400)))
			if len(r.content()) != 1000 {
				t.Fatal("a partial burst reached the store")
			}
			wantSent(t, "rest of second burst", r.data(2, 5400, fill(0xCC, 400)), wire.TWriteAck)
			got := r.content()
			if !bytes.Equal(got[5000:5400], fill(0xBB, 400)) || !bytes.Equal(got[5400:5800], fill(0xCC, 400)) {
				t.Fatal("second burst's bytes are not what its packets carried")
			}
		}},
		{"the buffer returns to the free list when the apply fails", func(t *testing.T, r *burstRig) {
			r.obj.fail = true
			r.announce(1, 0, 100)
			reply := r.data(1, 0, fill('a', 100))
			wantSent(t, "failed apply", reply, wire.TError)
			if reply[0].ReqID != 1 {
				t.Fatalf("error reply for req %d", reply[0].ReqID)
			}
			if len(r.s.writes) != 0 || len(r.s.open) != 0 || len(r.s.burstFree) != 1 {
				t.Fatalf("after failed apply: %d remembered, %d open, %d free", len(r.s.writes), len(r.s.open), len(r.s.burstFree))
			}
			// The retry starts clean and succeeds.
			r.obj.fail = false
			r.announce(1, 0, 100)
			wantSent(t, "retry", r.data(1, 0, fill('b', 100)), wire.TWriteAck)
			if !bytes.Equal(r.content(), fill('b', 100)) {
				t.Fatal("retry content wrong")
			}
		}},
		{"open bursts give their buffers back when the session ends", func(t *testing.T, r *burstRig) {
			r.announce(1, 0, 100)
			r.announce(2, 100, 100)
			r.data(3, 0, fill('o', 10)) // an orphan has no buffer
			r.data(1, 0, fill('a', 50))
			r.s.abandonWrites()
			if len(r.s.open) != 0 || len(r.s.writes) != 0 || len(r.s.burstFree) != 2 {
				t.Fatalf("after session end: %d open, %d remembered, %d free", len(r.s.open), len(r.s.writes), len(r.s.burstFree))
			}
		}},
		{"an oversize announcement is refused and leaves nothing behind", func(t *testing.T, r *burstRig) {
			wantSent(t, "oversize", r.announce(1, 0, r.s.agent.cfg.MaxBurstBytes+1), wire.TError)
			if len(r.s.writes) != 0 || len(r.s.open) != 0 {
				t.Fatal("refused announcement left state behind")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newBurstRig(t, burstTimes))
		})
	}
}

// writeLoad feeds a session an endless stream of complete write bursts,
// one datagram per call, on a synthetic clock that advances so that
// about `completed` finished bursts are always inside DoneTTL — the
// stream-mem steady state is ≈750 per session.
type writeLoad struct {
	r       *burstRig
	step    time.Duration // clock advance per burst
	pkt     wire.Packet
	payload []byte
	id      uint32
	next    int // next datagram of the current burst: 0 is the announcement
}

const (
	loadPackets = 8
	loadPayload = 1024
)

func newWriteLoad(t testing.TB, completed int) *writeLoad {
	r := newBurstRig(t, Config{})
	r.conn.discard = true
	l := &writeLoad{
		r:       r,
		step:    r.s.agent.cfg.DoneTTL / time.Duration(completed+1),
		payload: fill('p', loadPayload),
	}
	for i := 0; i < (completed+2)*(loadPackets+1); i++ {
		l.feed() // reach the steady state
	}
	return l
}

// feed delivers one datagram and runs the per-datagram bookkeeping,
// exactly as session.run does.
func (l *writeLoad) feed() {
	s, now := l.r.s, l.r.now
	if l.next == 0 {
		l.id++
		l.pkt = wire.Packet{Header: wire.Header{Type: wire.TWrite, ReqID: l.id, Handle: s.handle, Length: loadPackets * loadPayload}}
	} else {
		l.pkt.Type = wire.TData
		l.pkt.Offset = int64(l.next-1) * loadPayload
		l.pkt.Length = loadPayload
		l.pkt.Payload = l.payload
	}
	s.dispatch(&l.pkt, burstClient, now)
	s.checkWrites(now)
	if l.next++; l.next > loadPackets {
		l.next = 0
		l.r.now = now.Add(l.step)
	}
}

// BenchmarkSessionWriteDatagram is the agent rung of the write path: the
// cost of one write datagram (announcement or data) as a function of how
// many bursts completed inside DoneTTL. It must be flat.
func BenchmarkSessionWriteDatagram(b *testing.B) {
	for _, completed := range []int{0, 100, 1000} {
		b.Run("completed="+strconv.Itoa(completed), func(b *testing.B) {
			l := newWriteLoad(b, completed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.feed()
			}
		})
	}
}

// TestWriteDatagramCostFlat pins the tentpole's complexity claim: a
// datagram costs the same whether 0 or 1000 bursts completed inside
// DoneTTL. Before the done queue, checkWrites walked every remembered
// burst after every datagram and the ratio was above twenty.
func TestWriteDatagramCostFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock cost ratio is meaningless under the race detector")
	}
	const datagrams = 200_000
	measure := func(completed int) time.Duration {
		l := newWriteLoad(t, completed)
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 3; round++ {
			start := time.Now()
			for i := 0; i < datagrams; i++ {
				l.feed()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	idle, busy := measure(0), measure(1000)
	ratio := float64(busy) / float64(idle)
	t.Logf("ns/datagram: %.0f with 0 completed bursts, %.0f with 1000 (ratio %.2f)",
		float64(idle)/datagrams, float64(busy)/datagrams, ratio)
	if ratio >= 2 {
		t.Fatalf("a write datagram costs %.2fx more with 1000 completed bursts inside DoneTTL than with none, want < 2x", ratio)
	}
}

// TestWriteBurstAllocs pins the steady-state allocation budget of a
// write burst, with 100 completed bursts inside DoneTTL so that every
// announcement finds a reaped record: an announce → data → ack cycle
// allocates nothing.
func TestWriteBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	l := newWriteLoad(t, 100)
	for l.next != 0 {
		l.feed()
	}
	perBurst := testing.AllocsPerRun(200, func() {
		for i := 0; i <= loadPackets; i++ {
			l.feed()
		}
	})
	if perBurst != 0 {
		t.Errorf("%v allocations per burst of %d packets, want 0", perBurst, loadPackets)
	}
	// Once the traffic stops, every remembered burst is reaped, but the
	// free list keeps only a few of their records.
	l.r.advance(2 * l.r.s.agent.cfg.DoneTTL)
	if len(l.r.s.writes) != 0 || len(l.r.s.writeFree) > writeFreeMax {
		t.Errorf("after a quiet DoneTTL: %d bursts remembered, %d records kept, want 0 and at most %d",
			len(l.r.s.writes), len(l.r.s.writeFree), writeFreeMax)
	}
}

// TestWriteDatagramAllocs pins that a write data packet that does not
// complete its burst allocates nothing.
func TestWriteDatagramAllocs(t *testing.T) {
	l := newWriteLoad(t, 100)
	for l.next != 0 {
		l.feed()
	}
	// One long burst, so that no measured packet completes it.
	const runs = 2000
	s, now := l.r.s, l.r.now
	s.dispatch(&wire.Packet{Header: wire.Header{
		Type: wire.TWrite, ReqID: l.id + 1, Handle: s.handle, Length: (runs + 2) * loadPayload,
	}}, burstClient, now)
	pkt := wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: l.id + 1, Handle: s.handle, Length: loadPayload},
		Payload: l.payload,
	}
	perData := testing.AllocsPerRun(runs, func() {
		s.dispatch(&pkt, burstClient, now)
		s.checkWrites(now)
		pkt.Offset += loadPayload
	})
	if perData != 0 {
		t.Errorf("%v allocations per data packet, want 0", perData)
	}
}
