package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"swift/internal/extent"
	"swift/internal/transport"
	"swift/internal/wire"
)

// The burst-driver tests step the driver's state machine by hand, the way
// internal/agent's TestWriteBurstLifecycle steps a session: on a conn that
// only records what is sent, with a clock the test moves. Each step does
// what runBursts does for one wake — launch at now, or receive one
// datagram at now, or expire at now — so every retry rule is pinned by
// the datagrams sent and the counters, without a sleep.

// recConn records every packet written to it. Nothing is ever received
// on it: the tests hand the driver its datagrams.
type recConn struct{ sent []wire.Packet }

func (c *recConn) WriteTo(p []byte, addr string) error {
	var pkt wire.Packet
	if err := wire.Unmarshal(p, &pkt); err != nil {
		return err
	}
	pkt.Payload = append([]byte(nil), pkt.Payload...)
	c.sent = append(c.sent, pkt)
	return nil
}
func (c *recConn) ReadFrom([]byte) (int, string, error) { return 0, "", transport.ErrClosed }
func (c *recConn) SetReadDeadline(time.Time) error      { return nil }
func (c *recConn) LocalAddr() string                    { return "rec:1" }
func (c *recConn) Close() error                         { return nil }

// silentOnceConn answers a control request's second transmission: the
// first meets silence, so the exchange retransmits once, backed off.
type silentOnceConn struct{ recConn }

func (c *silentOnceConn) ReadFrom(p []byte) (int, string, error) {
	if len(c.sent) < 2 {
		return 0, "", transport.ErrTimeout
	}
	reply, err := wire.Marshal(&wire.Packet{Header: wire.Header{Type: wire.TStatReply, ReqID: c.sent[len(c.sent)-1].ReqID}})
	return copy(p, reply), "a:1", err
}

// recHost hands out recording conns; nothing listens behind them.
type recHost struct{}

func (recHost) Listen(string) (transport.PacketConn, error) { return &recConn{}, nil }
func (recHost) Name() string                                { return "rec" }

const (
	rigTimeout = 100 * time.Millisecond
	rigRetries = 5
	rigPayload = 100  // data bytes per packet
	rigBurst   = 1000 // every case moves fragment range [0, rigBurst) of agent 0
)

// burstRig is one client, one file and one session to agent 0 with no
// network behind them, and the run of the driver under test.
type burstRig struct {
	t    *testing.T
	c    *Client
	f    *File
	conn *recConn
	now  time.Time
	mem  []byte // the flat memory the run moves: fragment bytes [0, rigBurst)
	d    burstRun
}

// newBurstRig starts a run in direction dir. Reads land in zeroed memory,
// writes send a pattern.
func newBurstRig(t *testing.T, dir direction, allowHedge bool, mutate func(*Config)) *burstRig {
	t.Helper()
	cfg := Config{
		Host: recHost{}, Agents: []string{"a:1", "b:1", "c:1"}, Unit: 4096, Parity: true,
		RetryTimeout: rigTimeout, MaxRetries: rigRetries, BreakerThreshold: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r := &burstRig{t: t, c: c, conn: &recConn{}, now: time.Unix(1_000_000, 0), mem: make([]byte, rigBurst)}
	if dir == writing {
		for i := range r.mem {
			r.mem[i] = byte(i % 251)
		}
	}
	r.f = &File{c: c, name: "obj"}
	s := &agentSession{
		idx: 0, conn: r.conn, dataAddr: "a:9", handle: 7,
		buf: make([]byte, wire.MaxPacket), out: wire.NewBatch(r.conn, wire.MaxPacket),
		payload: make([]byte, rigPayload), bursts: make([]burst, 2),
	}
	r.d = r.f.newBurstRun(s, dir, xfer{buf: r.mem, flat: true}, nil, allowHedge)
	return r
}

// took returns what the step sent and forgets it.
func (r *burstRig) took() []wire.Packet {
	sent := r.conn.sent
	r.conn.sent = nil
	return sent
}

// launch starts the burst for [0, rigBurst) at the current instant.
func (r *burstRig) launch() []wire.Packet {
	r.t.Helper()
	if err := r.d.launch(extent.Extent{Off: 0, Len: rigBurst}, r.now); err != nil {
		r.t.Fatalf("launch: %v", err)
	}
	return r.took()
}

// deliver hands the driver one datagram d later.
func (r *burstRig) deliver(d time.Duration, p *wire.Packet) ([]wire.Packet, error) {
	r.t.Helper()
	r.now = r.now.Add(d)
	p.Length = uint32(len(p.Payload))
	dgram, err := wire.Marshal(p)
	if err != nil {
		r.t.Fatal(err)
	}
	err = r.d.receive(dgram, r.now)
	return r.took(), err
}

// data delivers read data for [off, off+n) under request id.
func (r *burstRig) data(id uint32, off, n int64) {
	r.t.Helper()
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte((off + int64(i)) % 251)
	}
	sent, err := r.deliver(time.Millisecond, &wire.Packet{Header: wire.Header{Type: wire.TData, ReqID: id, Offset: off}, Payload: payload})
	if err != nil || len(sent) != 0 {
		r.t.Fatalf("data [%d:%d): sent %v, err %v", off, off+n, sent, err)
	}
}

// timeout moves the clock to the driver's wake time and runs the tick;
// it returns how long the driver waited.
func (r *burstRig) timeout() (time.Duration, []wire.Packet, error) {
	wait := r.d.wake().Sub(r.now)
	r.now = r.d.wake()
	err := r.d.expire(r.now)
	return wait, r.took(), err
}

func pushback(id uint32, reason wire.PushbackReason, after time.Duration) *wire.Packet {
	return &wire.Packet{
		Header:  wire.Header{Type: wire.TPushback, ReqID: id},
		Payload: wire.AppendPushback(nil, &wire.PushbackInfo{Reason: reason, RetryAfter: after}),
	}
}

// shape renders sent packets as type and fragment range.
type shape struct {
	typ    wire.Type
	off, n int64
}

func shapes(ps []wire.Packet) []shape {
	out := make([]shape, len(ps))
	for i, p := range ps {
		out[i] = shape{p.Type, p.Offset, int64(p.Length)}
	}
	return out
}

func wantShapes(t *testing.T, step string, got []wire.Packet, want ...shape) {
	t.Helper()
	if !slices.Equal(shapes(got), want) {
		t.Fatalf("%s: sent %v, want %v", step, shapes(got), want)
	}
}

// wholeBurst is what launching [0, rigBurst) sends in each direction.
func wholeBurst(dir direction) []shape {
	if dir == reading {
		return []shape{{wire.TRead, 0, rigBurst}}
	}
	out := []shape{{wire.TWrite, 0, rigBurst}}
	for off := int64(0); off < rigBurst; off += rigPayload {
		out = append(out, shape{wire.TData, off, rigPayload})
	}
	return out
}

func within(d, lo, hi time.Duration) bool { return d >= lo && d <= hi }

func (r *burstRig) strikes() int {
	b := &r.c.breakers[0]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.strikes
}

var bothDirections = []direction{reading, writing}

func TestBurstLaunch(t *testing.T) {
	for _, dir := range bothDirections {
		t.Run(dirName[dir], func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			sent := r.launch()
			wantShapes(t, "launch", sent, wholeBurst(dir)...)
			for _, p := range sent {
				if p.Handle != 7 || p.Deadline != 0 {
					t.Fatalf("launch sent %+v, want handle 7 and no deadline extension", p.Header)
				}
				if p.Type == wire.TData && (p.ReqID != sent[0].ReqID || !bytes.Equal(p.Payload, r.mem[p.Offset:p.Offset+rigPayload])) {
					t.Fatalf("data packet at %d: wrong id or bytes", p.Offset)
				}
			}
			m := r.c.MetricsSnapshot()
			if got := m.ReadBursts + m.WriteBursts; got != 1 || r.c.tel.Total(evBurst[dir]) != 1 {
				t.Fatalf("bursts counted = %+v, want one %s burst", m, dirName[dir])
			}
			if got := r.d.wake().Sub(r.now); got != rigTimeout {
				t.Fatalf("first wake after %v, want the base timeout", got)
			}
			if want := map[direction]int{reading: readWindow, writing: r.c.cfg.WriteWindow}[dir]; r.d.window != want {
				t.Fatalf("window = %d, want %d", r.d.window, want)
			}
		})
	}
}

// TestBurstTimeoutRetransmits: silence resubmits a read's missing ranges
// only (a write is re-announced, without data), consecutive silent
// timeouts back off, and progress puts the wait back to the base timeout.
func TestBurstTimeoutRetransmits(t *testing.T) {
	t.Run("read", func(t *testing.T) {
		r := newBurstRig(t, reading, false, nil)
		id := r.launch()[0].ReqID
		r.data(id, 0, 100)
		r.data(id, 300, 100)
		if got := r.d.wake().Sub(r.now); got != rigTimeout {
			t.Fatalf("wait after progress = %v, want the base timeout", got)
		}
		_, sent, err := r.timeout()
		if err != nil {
			t.Fatal(err)
		}
		wantShapes(t, "first timeout", sent, shape{wire.TRead, 100, 200}, shape{wire.TRead, 400, 600})
		if sent[0].ReqID == id || sent[1].ReqID == id || sent[0].ReqID == sent[1].ReqID {
			t.Fatalf("resubmissions reuse a request id: %d, %d after %d", sent[0].ReqID, sent[1].ReqID, id)
		}
		// Data under the original id and under a resubmission's both count.
		r.data(id, 100, 100)
		r.data(sent[1].ReqID, 400, 600)
		_, sent2, err := r.timeout()
		if err != nil {
			t.Fatal(err)
		}
		wantShapes(t, "timeout after partial progress", sent2, shape{wire.TRead, 200, 100})
		r.data(sent2[0].ReqID, 200, 100)
		if len(r.d.live) != 0 {
			t.Fatal("burst still outstanding with every byte delivered")
		}
		want := make([]byte, rigBurst)
		for i := range want {
			want[i] = byte(i % 251)
		}
		if !bytes.Equal(r.mem, want) {
			t.Fatal("delivered bytes were not placed where they belong")
		}
		if m := r.c.MetricsSnapshot(); m.ReadTimeouts != 2 || m.Backoffs != 0 {
			t.Fatalf("timeouts = %d, backoffs = %d, want 2 and 0 (progress between them)", m.ReadTimeouts, m.Backoffs)
		}
		if r.c.tel.agents[0].burstLat[reading].Snapshot().Count != 1 {
			t.Fatal("completed burst's latency not observed")
		}
	})
	for _, dir := range bothDirections {
		t.Run(dirName[dir]+" backoff", func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			first := r.launch()
			retransmission := wholeBurst(dir)[:1] // the request, or the announcement alone
			var waits []time.Duration
			for i := 0; i < 3; i++ {
				wait, sent, err := r.timeout()
				if err != nil {
					t.Fatal(err)
				}
				wantShapes(t, "silent timeout", sent, retransmission...)
				if dir == writing && sent[0].ReqID != first[0].ReqID {
					t.Fatal("re-announcement under a new id")
				}
				waits = append(waits, wait)
			}
			// Base, then level 0 and level 1 of the jittered schedule.
			if waits[0] != rigTimeout || !within(waits[1], 75*time.Millisecond, 125*time.Millisecond) || !within(waits[2], 150*time.Millisecond, 250*time.Millisecond) {
				t.Fatalf("waits = %v, want base, ~base, ~2×base", waits)
			}
			m := r.c.MetricsSnapshot()
			if m.ReadTimeouts+m.WriteTimeouts != 3 || r.c.tel.Total(evTimeout[dir]) != 3 || m.Backoffs != 2 {
				t.Fatalf("counters %+v, want 3 %s timeouts and 2 backoffs", m, dirName[dir])
			}
			if r.c.tel.Load(evTimeout[dir], 0) != 3 || r.c.tel.Load(evBackoff, 0) != 2 {
				t.Fatal("per-agent timeout/backoff counters disagree with the global ones")
			}
			// Progress resets the schedule.
			if dir == reading {
				r.data(first[0].ReqID, 0, 100)
			} else if _, err := r.deliver(time.Millisecond, &wire.Packet{
				Header:  wire.Header{Type: wire.TResend, ReqID: first[0].ReqID},
				Payload: wire.AppendResend(nil, []wire.Range{{Off: 0, Len: 100}}),
			}); err != nil {
				t.Fatal(err)
			}
			if got := r.d.wake().Sub(r.now); got != rigTimeout {
				t.Fatalf("wait after progress = %v, want the base timeout", got)
			}
			if wait, _, _ := r.timeout(); wait != rigTimeout {
				t.Fatalf("timeout after progress came after %v", wait)
			}
			if wait, _, _ := r.timeout(); !within(wait, 75*time.Millisecond, 125*time.Millisecond) {
				t.Fatalf("first backoff after progress = %v, want level 0 again", wait)
			}
		})
	}
}

// TestBurstGiveUp: with no progress for MaxRetries base timeouts the run
// ends with ErrRetriesSpent and the agent's breaker takes one strike.
func TestBurstGiveUp(t *testing.T) {
	for _, dir := range bothDirections {
		t.Run(dirName[dir], func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			r.launch()
			start := r.now
			var err error
			for n := 0; err == nil; n++ {
				if n > 2*rigRetries {
					t.Fatal("driver never gave up")
				}
				_, _, err = r.timeout()
			}
			if !errors.Is(err, ErrRetriesSpent) {
				t.Fatalf("give-up = %v, want ErrRetriesSpent", err)
			}
			if r.now.Sub(start) < rigRetries*rigTimeout {
				t.Fatalf("gave up after %v, before the no-progress budget", r.now.Sub(start))
			}
			if r.strikes() != 1 || r.c.BreakerStates()[0] != BreakerClosed {
				t.Fatalf("breaker strikes = %d, state %v; want one strike, closed", r.strikes(), r.c.BreakerStates()[0])
			}
		})
	}
}

// TestBurstOpDeadline: every transmission carries what is left of the
// operation's budget, and the budget running out ends the run — at the
// deadline itself, however far the backoff has grown.
func TestBurstOpDeadline(t *testing.T) {
	const budget = 350 * time.Millisecond
	for _, dir := range bothDirections {
		t.Run(dirName[dir], func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			r.d.opDl = r.now.Add(budget)
			sent := r.launch()
			if sent[0].Deadline != budget {
				t.Fatalf("first transmission stamped %v, want %v", sent[0].Deadline, budget)
			}
			for _, p := range sent[1:] {
				if p.Deadline != 0 {
					t.Fatal("a data packet carries the deadline extension")
				}
			}
			last := sent[0].Deadline
			for {
				_, sent, err := r.timeout()
				if err != nil {
					if !errors.Is(err, ErrDeadline) {
						t.Fatalf("run ended with %v, want ErrDeadline", err)
					}
					break
				}
				if want := r.d.opDl.Sub(r.now); len(sent) != 1 || sent[0].Deadline != want || want >= last {
					t.Fatalf("retransmission stamped %v, want the shrunk budget %v (< %v)", sent[0].Deadline, want, last)
				}
				last = sent[0].Deadline
			}
			if !r.now.Equal(r.d.opDl) {
				t.Fatalf("run ended %v from the deadline, want at it", r.now.Sub(r.d.opDl))
			}
			if r.strikes() != 0 {
				t.Fatal("a spent deadline struck the breaker")
			}
		})
	}
	t.Run("spent before launch", func(t *testing.T) {
		r := newBurstRig(t, reading, false, nil)
		r.d.opDl = r.now
		if err := r.d.launch(extent.Extent{Off: 0, Len: rigBurst}, r.now); !errors.Is(err, ErrDeadline) || len(r.took()) != 0 {
			t.Fatalf("launch with no budget = %v, want ErrDeadline and nothing sent", err)
		}
	})
}

// TestBurstPushback: one pushback paces the retransmission by the agent's
// hint, a second abandons the run, and the agent's word that the deadline
// has passed is trusted.
func TestBurstPushback(t *testing.T) {
	for _, dir := range bothDirections {
		t.Run(dirName[dir], func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			id := r.launch()[0].ReqID
			sent, err := r.deliver(time.Millisecond, pushback(id, wire.PushQueueFull, 7*time.Millisecond))
			if err != nil || len(sent) != 0 {
				t.Fatalf("first pushback: sent %v, err %v; want patience", sent, err)
			}
			wait, sent, err := r.timeout()
			if err != nil || wait != 7*time.Millisecond {
				t.Fatalf("retransmission after %v (err %v), want the agent's 7ms hint", wait, err)
			}
			wantShapes(t, "paced retransmission", sent, wholeBurst(dir)[0])
			// No hint: the base timeout paces it. This is the second
			// pushback of the burst, though.
			_, err = r.deliver(time.Millisecond, pushback(sent[0].ReqID, wire.PushQueueFull, 0))
			if !errors.Is(err, ErrAgentBusy) {
				t.Fatalf("second pushback = %v, want ErrAgentBusy", err)
			}
			m := r.c.MetricsSnapshot()
			if m.Pushbacks != 2 || r.c.tel.Load(evPushback[reading], 0) != 2 {
				t.Fatalf("pushbacks counted = %d, want 2", m.Pushbacks)
			}
			if r.c.BreakerStates()[0] != BreakerOpen || m.BreakerTrips != 1 {
				t.Fatalf("breaker %v after two pushbacks at threshold 2, trips %d", r.c.BreakerStates()[0], m.BreakerTrips)
			}
			for i, h := range r.c.Health() {
				if h.State != StateHealthy {
					t.Fatalf("agent %d %v after pushback: backpressure fed the lifecycle", i, h.State)
				}
			}
		})
		t.Run(dirName[dir]+" unhinted", func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			id := r.launch()[0].ReqID
			if _, err := r.deliver(30*time.Millisecond, pushback(id, wire.PushQueueFull, 0)); err != nil {
				t.Fatal(err)
			}
			if wait, _, _ := r.timeout(); wait != rigTimeout {
				t.Fatalf("unhinted pushback paced by %v, want the base timeout", wait)
			}
		})
		t.Run(dirName[dir]+" deadline expired", func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			id := r.launch()[0].ReqID
			if _, err := r.deliver(time.Millisecond, pushback(id, wire.PushDeadlineExpired, 0)); !errors.Is(err, ErrDeadline) {
				t.Fatalf("agent-reported expiry = %v, want ErrDeadline", err)
			}
		})
	}
}

// TestBurstResendAsk: the agent's resend request is answered with exactly
// the ranges it names, cut at the burst's own bounds.
func TestBurstResendAsk(t *testing.T) {
	r := newBurstRig(t, writing, false, nil)
	id := r.launch()[0].ReqID
	sent, err := r.deliver(time.Millisecond, &wire.Packet{
		Header:  wire.Header{Type: wire.TResend, ReqID: id},
		Payload: wire.AppendResend(nil, []wire.Range{{Off: 100, Len: 150}, {Off: 950, Len: 4000}, {Off: 5000, Len: 10}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantShapes(t, "resend", sent, shape{wire.TData, 100, 100}, shape{wire.TData, 200, 50}, shape{wire.TData, 950, 50})
	for _, p := range sent {
		if p.ReqID != id || !bytes.Equal(p.Payload, r.mem[p.Offset:p.Offset+int64(p.Length)]) {
			t.Fatalf("resent packet at %d: wrong id or bytes", p.Offset)
		}
	}
	m := r.c.MetricsSnapshot()
	if m.ResendAsks != 1 || m.DataPackets != 10+3 || r.c.tel.Load(evResend, 0) != 1 {
		t.Fatalf("resend asks = %d, data packets = %d; want 1 and 13", m.ResendAsks, m.DataPackets)
	}
	if _, err := r.deliver(time.Millisecond, &wire.Packet{Header: wire.Header{Type: wire.TWriteAck, ReqID: id}}); err != nil || len(r.d.live) != 0 {
		t.Fatalf("ack left %d bursts outstanding (err %v)", len(r.d.live), err)
	}
}

// TestBurstIgnoresStrangers: datagrams under ids the run did not issue,
// replies of the other direction and data outside the burst change
// nothing.
func TestBurstIgnoresStrangers(t *testing.T) {
	for _, dir := range bothDirections {
		t.Run(dirName[dir], func(t *testing.T) {
			r := newBurstRig(t, dir, false, nil)
			id := r.launch()[0].ReqID
			blank := bytes.Clone(r.mem)
			strangers := []*wire.Packet{
				{Header: wire.Header{Type: wire.TData, ReqID: id + 100, Offset: 0}, Payload: []byte("stale")},
				{Header: wire.Header{Type: wire.TWriteAck, ReqID: id + 100}},
				{Header: wire.Header{Type: wire.TError, ReqID: id + 100}, Payload: wire.AppendError(nil, "not ours")},
				pushback(id+100, wire.PushQueueFull, time.Millisecond),
				{Header: wire.Header{Type: wire.TData, ReqID: id, Offset: rigBurst - 2}, Payload: []byte("past the end")},
				{Header: wire.Header{Type: wire.TData, ReqID: id, Offset: -4}, Payload: []byte("before the start")},
			}
			if dir == reading {
				strangers = append(strangers, &wire.Packet{Header: wire.Header{Type: wire.TWriteAck, ReqID: id}})
			}
			for _, p := range strangers {
				sent, err := r.deliver(time.Millisecond, p)
				if err != nil || len(sent) != 0 {
					t.Fatalf("%v under id %d: sent %v, err %v", p.Type, p.ReqID, sent, err)
				}
			}
			if len(r.d.live) != 1 || r.d.live[0].got.Len() != 0 || !bytes.Equal(r.mem, blank) {
				t.Fatal("a stranger's datagram changed the burst")
			}
			if got := r.d.wake().Sub(r.now); got >= rigTimeout {
				t.Fatalf("a stranger's datagram counted as progress: %v to the next timeout", got)
			}
			if m := r.c.MetricsSnapshot(); m.Pushbacks != 0 {
				t.Fatal("a stranger's pushback was counted")
			}
			// The burst's own error reply does end the run.
			_, err := r.deliver(time.Millisecond, &wire.Packet{
				Header: wire.Header{Type: wire.TError, ReqID: id}, Payload: wire.AppendError(nil, "disk on fire"),
			})
			var re *wire.RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("own TError = %v, want a RemoteError", err)
			}
		})
	}
}

// TestBurstHedge: hedging is armed only for reads that allow it on a
// client configured for it, fires at the hedge delay if the retry budget
// has a token, and otherwise waits the burst out.
func TestBurstHedge(t *testing.T) {
	hedging := func(cfg *Config) { cfg.HedgeReads = true }
	armed := []struct {
		name   string
		dir    direction
		allow  bool
		mutate func(*Config)
		want   bool
	}{
		{"read, allowed, configured", reading, true, hedging, true},
		{"read, not allowed", reading, false, hedging, false},
		{"read, not configured", reading, true, nil, false},
		{"read, no parity", reading, true, func(cfg *Config) { cfg.HedgeReads, cfg.Parity = true, false }, false},
		{"write", writing, true, hedging, false},
	}
	for _, tc := range armed {
		t.Run(tc.name, func(t *testing.T) {
			r := newBurstRig(t, tc.dir, tc.allow, tc.mutate)
			r.launch()
			if got := !r.d.live[0].hedgeAt.IsZero(); got != tc.want {
				t.Fatalf("hedge armed = %v, want %v", got, tc.want)
			}
		})
	}
	t.Run("fires", func(t *testing.T) {
		r := newBurstRig(t, reading, true, hedging)
		r.launch()
		// A cold latency histogram floors the delay at the base timeout,
		// where the retry clock's first timeout also falls: the hedge wins.
		wait, sent, err := r.timeout()
		if !errors.Is(err, errHedged) || wait != rigTimeout || len(sent) != 0 {
			t.Fatalf("stall: waited %v, sent %v, err %v; want errHedged at the hedge delay", wait, sent, err)
		}
		if m := r.c.MetricsSnapshot(); m.Hedges != 1 || m.ReadTimeouts != 0 || r.c.tel.Load(evHedge, 0) != 1 {
			t.Fatalf("hedges = %d, read timeouts = %d; want 1 and 0", m.Hedges, m.ReadTimeouts)
		}
	})
	t.Run("denied by the budget", func(t *testing.T) {
		r := newBurstRig(t, reading, true, hedging)
		r.c.budget.mu.Lock()
		r.c.budget.tokens = 0
		r.c.budget.mu.Unlock()
		r.launch()
		_, sent, err := r.timeout()
		if err != nil {
			t.Fatalf("stall with an empty budget = %v, want the burst waited out", err)
		}
		wantShapes(t, "timeout", sent, shape{wire.TRead, 0, rigBurst})
		if m := r.c.MetricsSnapshot(); m.Hedges != 0 || m.BudgetDenials != 1 || !r.d.live[0].hedgeAt.IsZero() {
			t.Fatalf("hedges = %d, denials = %d; want the hedge denied once and disarmed", m.Hedges, m.BudgetDenials)
		}
	})
}

// TestBurstCountersReconcile: after a drill of a resend ask, silent
// timeouts with a backoff, pushbacks that trip the breaker and an
// unattributed control-RPC backoff, every event kind exported both
// globally and per agent reconciles exactly.
func TestBurstCountersReconcile(t *testing.T) {
	r := newBurstRig(t, writing, false, nil)
	id := r.launch()[0].ReqID
	if _, err := r.deliver(time.Millisecond, &wire.Packet{
		Header:  wire.Header{Type: wire.TResend, ReqID: id},
		Payload: wire.AppendResend(nil, []wire.Range{{Off: 0, Len: 100}}),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := r.timeout(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.deliver(time.Millisecond, pushback(id, wire.PushQueueFull, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.deliver(time.Millisecond, pushback(id, wire.PushQueueFull, 0)); !errors.Is(err, ErrAgentBusy) {
		t.Fatalf("second pushback = %v, want ErrAgentBusy", err)
	}
	if _, err := r.c.rpc(&silentOnceConn{}, "a:1", &wire.Packet{Header: wire.Header{Type: wire.TStat}}); err != nil {
		t.Fatal(err)
	}

	m := r.c.MetricsSnapshot()
	if m.WriteBursts != 1 || m.ResendAsks != 1 || m.WriteTimeouts != 2 || m.Backoffs != 2 || m.Pushbacks != 2 || m.BreakerTrips != 1 {
		t.Fatalf("drill counted %+v", m)
	}
	if r.c.tel.Load(evBackoff, -1) != 1 || r.c.Stats().Agents[0].BreakerTransitions != 1 {
		t.Fatal("unattributed backoff or breaker transition not counted where it belongs")
	}
	assertReconciled(t, r.c)
}

// TestReadDataPacketAllocs guards the per-packet hot path: a read data
// packet delivered to the driver — decoded, placed, and its burst's clock
// restarted as progress — allocates nothing.
func TestReadDataPacketAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	r := newBurstRig(t, reading, false, nil)
	id := r.launch()[0].ReqID
	dgram, err := wire.Marshal(&wire.Packet{
		Header:  wire.Header{Type: wire.TData, ReqID: id, Length: rigPayload},
		Payload: make([]byte, rigPayload),
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.now = r.now.Add(time.Millisecond)
		if err := r.d.receive(dgram, r.now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one read data packet allocated %v times, want 0", allocs)
	}
}

// TestOpAllocsFlat pins that a warmed client op allocates nothing, on
// either side, over agents on a segment the model charges nothing: not
// per burst (a 1 MiB ReadAt or WriteAt against a 256 KiB one), not per
// agent (each session's worker is resident), and not when the file is
// opened with two agents of a 3+2 layout marked down, so that reads
// rebuild their share and writes skip it. The agents' DoneTTL is short
// so that the bursts they remember stop growing their tables within the
// warm-up, as they do in a long-running agent.
func TestOpAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name string
		o    clusterOpts
		down []int
	}{
		{"3 agents", clusterOpts{agents: 3}, nil},
		{"3+2, two down", clusterOpts{agents: 5, parityShards: 2}, []int{1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.unit, tc.o.unthrottled, tc.o.doneTTL = 64<<10, true, time.Millisecond
			c := newCluster(t, tc.o)
			for _, i := range tc.down {
				c.client.MarkDown(i, true)
			}
			f, err := c.client.Open("flat", OpenFlags{Create: true})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if n := f.liveCount(); n != tc.o.agents-len(tc.down) {
				t.Fatalf("%d sessions open, want %d", n, tc.o.agents-len(tc.down))
			}
			buf := make([]byte, 1<<20)
			allocs := func(op func([]byte, int64) (int, error), n int) float64 {
				run := func() {
					if _, err := op(buf[:n], 0); err != nil {
						t.Fatal(err)
					}
				}
				for range 20 {
					run()
				}
				return testing.AllocsPerRun(50, run)
			}
			for _, op := range []struct {
				name string
				do   func([]byte, int64) (int, error)
			}{{"WriteAt", f.WriteAt}, {"ReadAt", f.ReadAt}} {
				small, large := allocs(op.do, 256<<10), allocs(op.do, 1<<20)
				if small != 0 || large != 0 {
					t.Errorf("%s allocated %v times at 256 KiB and %v at 1 MiB, want 0", op.name, small, large)
				}
			}
		})
	}
}
