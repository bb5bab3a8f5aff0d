package core

import (
	"fmt"
	"slices"
	"time"

	"swift/internal/backoff"
	"swift/internal/extent"
	"swift/internal/obs"
	"swift/internal/transport"
	"swift/internal/wire"
)

// This file is the client's one transfer engine — §3.1's "the client keeps
// sufficient state to determine what packets have been received and thus
// can resubmit requests when packets are lost": the burst driver that moves
// fragment ranges between an agent session and memory in either direction,
// each burst on its own retry clock.

// burstClock is a burst's retry clock, started, or restarted by progress,
// at now: give-up is MaxRetries base timeouts away.
func (c *Client) burstClock(now time.Time) backoff.Clock {
	return c.bo.Start(now, time.Duration(c.cfg.MaxRetries)*c.cfg.RetryTimeout)
}

// xfer is the memory a burst run moves, in whichever direction: a logical
// buffer striped over the agents (buf's first byte is logical offset base;
// a write's parity units ride in pu), or — flat — one contiguous run of a
// fragment (buf's first byte is fragment offset base), which is how whole
// units move for reconstruction, repair, rebuild and scrub.
type xfer struct {
	buf  []byte
	base int64
	pu   *parityUnits
	flat bool
}

// direction is which way bytes move; it indexes per-direction counters.
type direction uint8

const (
	reading direction = iota // TRead out; TData in
	writing                  // TWrite and TData out; TWriteAck or TResend in
)

var dirName = [...]string{reading: "read", writing: "write"}

// readWindow is the read bursts kept in flight per agent: one, as the
// prototype did. Writes keep Config.WriteWindow.
const readWindow = 1

// burst is the record of one outstanding burst. Records are session-owned
// and recycled, so a burst allocates nothing once ids and got have grown.
type burst struct {
	lo, n int64
	// ids name the burst on the wire: a write's announcement; a read's
	// request and each of its resubmissions.
	ids       []uint32
	got       extent.Set // reads: the bytes that have arrived
	start     time.Time
	clock     backoff.Clock
	hedgeAt   time.Time // reads: when a stall is hedged; zero when not armed
	pushbacks int
}

// burstRun is one run of the driver on one agent session. runBursts owns
// the session conn's only receive loop; launch, wake, receive and expire
// are the state machine it steps, each told the time by the caller.
type burstRun struct {
	f     *File
	s     *agentSession
	dir   direction
	x     xfer
	sp    *obs.Span
	lat   *obs.Histogram // the direction's burst latency on this agent
	opDl  time.Time      // the operation's deadline; zero when OpTimeout is off
	hedge bool
	// live are the outstanding bursts, at most window of them; a prefix
	// of s.bursts.
	live   []burst
	window int
}

// flatBurst moves fragment bytes [lo, lo+len(buf)) of one agent to or from
// buf as a single burst.
func (f *File) flatBurst(s *agentSession, dir direction, lo int64, buf []byte, sp *obs.Span) error {
	return f.runBursts(s, dir, []extent.Extent{{Off: lo, Len: int64(len(buf))}}, xfer{buf: buf, base: lo, flat: true}, sp, false)
}

// runBursts moves the given fragment ranges of one agent, one burst each
// and a window of them at a time, between the agent and x. A read burst
// is a request answered by data packets; a write burst is an announcement
// and its data, blasted ("the client sends out the data to be written as
// fast as it can ... each storage agent ... either acknowledges receipt
// of all packets or sends requests for packets lost").
//
// allowHedge arms hedging of reads (with Config.HedgeReads): a burst
// stalled past the p99-derived delay ends the run with errHedged for the
// caller to race reconstruction against the straggler. Reconstruction's
// own reads pass false — a hedge inside a hedge would recurse.
func (f *File) runBursts(s *agentSession, dir direction, ranges []extent.Extent, x xfer, sp *obs.Span, allowHedge bool) error {
	d := f.newBurstRun(s, dir, x, sp, allowHedge)
	for next := 0; next < len(ranges) || len(d.live) > 0; {
		for ; len(d.live) < d.window && next < len(ranges); next++ {
			// Read the clock per launch: the burst before may have spent
			// a while sending.
			if err := d.launch(ranges[next], time.Now()); err != nil {
				return err
			}
		}
		s.conn.SetReadDeadline(d.wake())
		n, seg, _, err := transport.ReadSegments(s.conn, s.buf)
		now := time.Now()
		if transport.IsTimeout(err) {
			err = d.expire(now)
		}
		// Every datagram of a run is dispatched, in order, where it lies.
		for run := s.buf[:n]; len(run) > 0 && err == nil; {
			var dgram []byte
			dgram, run = transport.NextSegment(run, seg)
			err = d.receive(dgram, now)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *File) newBurstRun(s *agentSession, dir direction, x xfer, sp *obs.Span, allowHedge bool) burstRun {
	cfg := &f.c.cfg
	d := burstRun{f: f, s: s, dir: dir, x: x, sp: sp, lat: f.c.tel.agents[s.idx].burstLat[dir], opDl: f.opDeadline, live: s.bursts[:0], window: readWindow}
	if dir == writing {
		d.window = cfg.WriteWindow
	} else {
		d.hedge = allowHedge && cfg.HedgeReads && cfg.Parity
	}
	return d
}

// launch starts the burst for fragment range r at now.
func (d *burstRun) launch(r extent.Extent, now time.Time) error {
	c := d.f.c
	d.live = d.live[:len(d.live)+1]
	b := &d.live[len(d.live)-1]
	b.got.Reset()
	*b = burst{lo: r.Off, n: r.Len, ids: b.ids[:0], got: b.got, start: now, clock: c.burstClock(now)}
	if d.hedge {
		b.hedgeAt = now.Add(c.hedgeDelay(d.s.idx))
	}
	c.tel.Count(evBurst[d.dir], d.s.idx)
	if d.dir == writing {
		b.ids = append(b.ids, c.nextReq())
	}
	if err := d.transmit(b, now); err != nil || d.dir == reading {
		return err
	}
	return d.sendData(b.ids[0], b.lo, b.n)
}

// transmit sends, or sends again, what asks the agent to move burst b: a
// write's announcement (the agent re-acknowledges a complete burst and
// otherwise asks for exactly what it lacks) or read requests for what has
// not arrived, each under a fresh id. Only these packets carry the trace
// context and, with OpTimeout set, the operation's remaining deadline
// budget; data packets never do.
func (d *burstRun) transmit(b *burst, now time.Time) error {
	f, s := d.f, d.s
	p := wire.Packet{Header: wire.Header{Type: wire.TRead, Handle: s.handle}, Trace: d.sp.Context()}
	if !d.opDl.IsZero() {
		// Every (re)transmission is stamped afresh with the shrunk budget,
		// so the agent can shed work whose client has given up.
		if p.Deadline = d.opDl.Sub(now); p.Deadline <= 0 {
			return fmt.Errorf("%w: %s %s[%d:%d]", ErrDeadline, dirName[d.dir], f.name, b.lo, b.lo+b.n)
		}
	}
	if d.dir == writing {
		p.Type, p.ReqID, p.Offset, p.Length, p.Flags = wire.TWrite, b.ids[0], b.lo, uint32(b.n), f.writeFlags()
		return s.out.Send(&p, s.dataAddr)
	}
	missing := []extent.Extent{{Off: b.lo, Len: b.n}}
	if b.got.Len() > 0 {
		const maxResubmit = 8
		missing = b.got.Missing(b.lo, b.n)
		missing = missing[:min(len(missing), maxResubmit)]
	}
	for _, m := range missing {
		p.ReqID, p.Offset, p.Length = f.c.nextReq(), m.Off, uint32(m.Len)
		b.ids = append(b.ids, p.ReqID)
		if err := s.out.Send(&p, s.dataAddr); err != nil {
			return err
		}
	}
	return nil
}

// sendData blasts fragment bytes [off, off+n) as data packets of the
// write burst announced under id, in runs of the session's batch; with
// WritePace set, a run is one packet.
//
//swift:hotpath
func (d *burstRun) sendData(id uint32, off, n int64) error {
	f, s, x := d.f, d.s, &d.x
	cfg := &f.c.cfg
	p := wire.Packet{Header: wire.Header{Type: wire.TData, ReqID: id, Handle: s.handle}}
	for end := off + n; off < end; off += int64(len(p.Payload)) {
		p.Payload = s.payload[:min(int64(len(s.payload)), end-off)]
		if x.flat {
			copyWindow(p.Payload, x.buf, off-x.base)
		} else {
			f.gather(s.idx, off, p.Payload, x.buf, x.base, x.pu)
		}
		p.Offset, p.Length = off, uint32(len(p.Payload))
		if err := s.out.Send(&p, s.dataAddr); err != nil {
			return err
		}
		f.c.tel.Count(evDataPacket, s.idx)
		if cfg.WritePace > 0 {
			if err := s.out.Flush(); err != nil {
				return err
			}
			cfg.Sleep(cfg.WritePace)
		}
	}
	return s.out.Flush()
}

// wake is when the receive loop must stop waiting for a datagram: the
// earliest timeout or hedge among the outstanding bursts, or the
// operation's deadline.
func (d *burstRun) wake() time.Time {
	w := d.opDl
	for i := range d.live {
		b := &d.live[i]
		if w.IsZero() || b.clock.Next.Before(w) {
			w = b.clock.Next
		}
		if !b.hedgeAt.IsZero() && b.hedgeAt.Before(w) {
			w = b.hedgeAt
		}
	}
	return w
}

// receive dispatches one datagram that arrived at now.
func (d *burstRun) receive(dgram []byte, now time.Time) error {
	var pkt wire.Packet
	if wire.Unmarshal(dgram, &pkt) != nil {
		return nil
	}
	i := 0
	for i < len(d.live) && !slices.Contains(d.live[i].ids, pkt.ReqID) {
		i++
	}
	if i == len(d.live) {
		return nil // stale, or not ours
	}
	b, done := &d.live[i], false
	switch {
	case pkt.Type == wire.TData && d.dir == reading:
		done = d.takeData(b, &pkt, now)
	case pkt.Type == wire.TWriteAck && d.dir == writing:
		done = true
	case pkt.Type == wire.TResend && d.dir == writing:
		return d.resend(b, &pkt, now)
	case pkt.Type == wire.TPushback:
		return d.pushback(b, &pkt, now)
	case pkt.Type == wire.TError:
		return wire.ParseError(pkt.Payload)
	}
	if done {
		// A finished burst, in either direction, is the breaker's success.
		d.f.c.noteAgentOK(d.s.idx)
		observeDur(d.lat, now.Sub(b.start), d.sp)
		last := len(d.live) - 1
		d.live[i], d.live[last] = d.live[last], d.live[i]
		d.live = d.live[:last]
	}
	return nil
}

// takeData places one data packet of read burst b and reports whether the
// burst is now whole. A payload outside the burst is dropped: the offset
// is wire input, and x holds only what was asked for.
//
//swift:hotpath
func (d *burstRun) takeData(b *burst, pkt *wire.Packet, now time.Time) (whole bool) {
	off, n, x := pkt.Offset, int64(len(pkt.Payload)), &d.x
	if n == 0 || off < b.lo || off+n > b.lo+b.n {
		return false
	}
	if x.flat {
		copy(x.buf[off-x.base:], pkt.Payload)
	} else {
		d.f.placeGlobal(d.s.idx, off, pkt.Payload, x.buf, x.base)
	}
	b.got.Add(off, n)
	b.clock = d.f.c.burstClock(now) // progress
	return b.got.Contains(b.lo, b.n)
}

// note reports event k of burst b (see telemetry.note).
func (d *burstRun) note(k *obs.EventKind, b *burst, format string, args ...any) {
	d.f.c.tel.Note(k, d.s.idx, d.sp, "%s[%d:%d] %s", d.f.name, b.lo, b.lo+b.n, fmt.Sprintf(format, args...))
}

// resend honours the agent's request for the ranges of write burst b it
// lacks. The agent is alive and said what it wants: progress.
func (d *burstRun) resend(b *burst, pkt *wire.Packet, now time.Time) error {
	ranges, err := wire.ParseResend(pkt.Payload)
	if err != nil {
		return nil
	}
	c := d.f.c
	b.clock = c.burstClock(now)
	d.note(evResend, b, "%d ranges asked", len(ranges))
	for _, r := range ranges {
		// The ranges are wire input: send only what lies inside the burst.
		if lo, hi := max(r.Off, b.lo), min(r.Off+r.Len, b.lo+b.n); lo < hi {
			if err := d.sendData(b.ids[0], lo, hi-lo); err != nil {
				return err
			}
		}
	}
	return nil
}

// pushback handles the agent's explicit refusal of burst b: backpressure
// that feeds the breaker, never a lifecycle event. One pushback paces the
// retransmission by the agent's hint; a second means persistent shedding,
// and the run ends with ErrAgentBusy for the caller to work around it.
func (d *burstRun) pushback(b *burst, pkt *wire.Packet, now time.Time) error {
	info, err := wire.ParsePushback(pkt.Payload)
	if err != nil {
		return nil
	}
	c, idx := d.f.c, d.s.idx
	b.pushbacks++
	d.note(evPushback[d.dir], b, "%v (retry after %v)", info.Reason, info.RetryAfter)
	c.noteOverload(idx, "pushback: "+info.Reason.String())
	switch {
	case info.Reason == wire.PushDeadlineExpired:
		// The agent says our budget is spent; trust it.
		return fmt.Errorf("%w: agent %d shed %s %s[%d:%d]", ErrDeadline, idx, dirName[d.dir], d.f.name, b.lo, b.lo+b.n)
	case b.pushbacks >= 2:
		return agentBusy(idx)
	case info.RetryAfter > 0:
		b.clock.Next = now.Add(info.RetryAfter)
	default:
		b.clock.Next = now.Add(c.cfg.RetryTimeout)
	}
	return nil
}

// expire handles a wake at now with nothing received: the operation's
// deadline ends the run, a burst stalled past its hedge delay is hedged,
// and each burst whose timeout has come is retransmitted or given up on.
func (d *burstRun) expire(now time.Time) error {
	f, c, idx, name := d.f, d.f.c, d.s.idx, dirName[d.dir]
	if !d.opDl.IsZero() && !now.Before(d.opDl) {
		return fmt.Errorf("%w: %s %s", ErrDeadline, name, f.name)
	}
	for i := range d.live {
		b := &d.live[i]
		if !b.hedgeAt.IsZero() && !now.Before(b.hedgeAt) {
			if c.budget.spend() {
				d.note(evHedge, b, "stalled %v, racing reconstruction", now.Sub(b.start))
				return fmt.Errorf("%w: agent %d read %s[%d:%d]", errHedged, idx, f.name, b.lo, b.lo+b.n)
			}
			c.tel.Count(evBudgetDenied, idx)
			b.hedgeAt = time.Time{} // budget empty: wait the burst out
		}
		if now.Before(b.clock.Next) {
			continue
		}
		level := b.clock.Level
		if b.clock.Expire(now) {
			d.note(evGiveUp[d.dir], b, "retries exhausted")
			c.noteOverload(idx, name+" retry give-up")
			return fmt.Errorf("%w: %s %s[%d:%d] agent %d", ErrRetriesSpent, name, f.name, b.lo, b.lo+b.n, idx)
		}
		if level > 0 {
			// The wait just armed has grown beyond the base timeout.
			c.tel.Count(evBackoff, idx)
		}
		d.note(evTimeout[d.dir], b, "retransmitting (level %d)", level)
		if err := d.transmit(b, now); err != nil {
			return err
		}
	}
	return nil
}
