// Package agent implements the Swift storage agent: the server process
// that owns one host's local disk and serves object fragments over the
// light-weight data-transfer protocol.
//
// Following the paper's §3.1, each agent "waits for open requests on a
// well-known port. When an open request is received, a new (secondary)
// thread of control is established along with a private port for further
// communication about that file with the client. This thread remains
// active and the communications channel remains open until the file is
// closed by the client; the primary thread always continues to await new
// open requests."
//
// Reads are served statelessly: the agent streams the requested range as
// data packets as soon as the request arrives; the client re-requests
// anything it misses. Writes are stateful: the agent learns the expected
// range from the write announcement, checks arriving data packets against
// it, and "either acknowledges receipt of all packets or sends requests
// for packets lost".
package agent

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/extent"
	"swift/internal/integrity"
	"swift/internal/obs"
	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/wire"
)

// DefaultPort is the well-known control port.
const DefaultPort = "7070"

// Config tunes an agent. The zero value gets sensible defaults.
type Config struct {
	// Port is the well-known control port (default DefaultPort).
	Port string
	// ReadChunk is the number of bytes fetched from the store per call
	// while streaming a read. Zero (or less) means one default burst,
	// wire.BurstPackets full payloads of the session: such a burst is one
	// store read into the session's buffer, cut into full datagrams on the
	// session goroutine. A longer burst is read in chunks of that size,
	// and a reader goroutine fetches chunk k+1 while chunk k is sent, so
	// disk service overlaps transmission from one chunk to the next. Only
	// the modeled 1991 installation sets it, to the prototype's 8 KiB.
	ReadChunk int
	// ResendCheck is how often incomplete (open) write bursts are
	// examined for stalls (default 25ms). It is also the session's
	// read-deadline tick, so the examination happens with or without
	// traffic.
	ResendCheck time.Duration
	// ResendAfter is how long an announced write burst may make no
	// progress before the agent requests the missing packets, and the
	// minimum spacing of those requests (default 50ms).
	ResendAfter time.Duration
	// SessionIdle tears down a session with no traffic (default 60s).
	SessionIdle time.Duration
	// DoneTTL keeps completed write-burst state around so duplicate
	// announcements can be re-acknowledged (default 2s). It is also how
	// long data for a burst that is never announced is held before the
	// orphan is dropped.
	DoneTTL time.Duration
	// SyncWrites applies every write burst synchronously even without
	// the per-burst flag.
	SyncWrites bool
	// MaxSessions bounds concurrently open files (default 256); opens
	// beyond it are rejected, like a process running out of
	// descriptors.
	MaxSessions int
	// MaxBurstBytes bounds one announced write burst (default 8 MiB).
	// Bursts are buffered in memory (in a buffer the session recycles
	// from burst to burst) until complete and applied to the store in
	// one piece, so a partially received burst never leaves a torn
	// range on disk; announcements beyond the bound are rejected. It
	// also bounds the data stashed for a burst whose announcement has
	// not arrived yet.
	MaxBurstBytes int64
	// Logf receives diagnostic messages (default: none).
	Logf func(format string, args ...any)
	// Verbose additionally routes burst-level trace events (session
	// lifecycle, resend prompts, stalled bursts) to Logf, prefixed
	// "trace:".
	Verbose bool
	// Obs, when non-nil, is the metric registry the agent registers its
	// telemetry in (swiftd's /metrics endpoint). Nil gets a private
	// registry; telemetry is always recorded.
	Obs *obs.Registry
	// Tracer, when non-nil, records agent-side service spans under the
	// trace contexts client request packets carry. Nil disables tracing.
	Tracer *obs.Tracer
	// ReadDelay injects an artificial pause before each read request is
	// served — a fault-injection knob for trace drills (the delay shows
	// up, annotated, in the agent's service span). Zero disables it.
	// SetReadDelay changes it at runtime.
	ReadDelay time.Duration
	// MaxInflightReads bounds read requests in service at once across all
	// sessions (default 64). Requests beyond the bound are shed with an
	// explicit pushback reply instead of queueing without limit: under
	// overload the agent answers fast with "not now" rather than slowly
	// with data nobody is still waiting for.
	MaxInflightReads int
	// PushbackRetryAfter is the pacing hint carried on queue-full
	// pushback replies (default 5ms).
	PushbackRetryAfter time.Duration
}

func (c *Config) fill() {
	if c.Port == "" {
		c.Port = DefaultPort
	}
	if c.ResendCheck == 0 {
		c.ResendCheck = 25 * time.Millisecond
	}
	if c.ResendAfter == 0 {
		c.ResendAfter = 50 * time.Millisecond
	}
	if c.SessionIdle == 0 {
		c.SessionIdle = 60 * time.Second
	}
	if c.DoneTTL == 0 {
		c.DoneTTL = 2 * time.Second
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.MaxBurstBytes == 0 {
		c.MaxBurstBytes = 8 << 20
	}
	if c.MaxInflightReads == 0 {
		c.MaxInflightReads = 64
	}
	if c.PushbackRetryAfter == 0 {
		c.PushbackRetryAfter = 5 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Agent is one storage agent.
type Agent struct {
	host transport.Host
	st   store.Store
	cfg  Config
	ctl  transport.PacketConn

	mu       sync.Mutex
	sessions map[uint64]*session // guarded by mu
	nextH    uint64              // guarded by mu
	closed   bool                // guarded by mu

	// readDelay is the injected read-service delay in nanoseconds,
	// atomic so fault drills can slow a live agent mid-run.
	readDelay atomic.Int64
	// inflightReads counts read requests currently in service; the
	// admission gate sheds past cfg.MaxInflightReads.
	inflightReads atomic.Int32

	tel *telemetry

	wg sync.WaitGroup
}

// New creates an agent serving st on host's well-known port and starts its
// control loop.
func New(host transport.Host, st store.Store, cfg Config) (*Agent, error) {
	cfg.fill()
	ctl, err := host.Listen(cfg.Port)
	if err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	a := &Agent{
		host:     host,
		st:       st,
		cfg:      cfg,
		ctl:      ctl,
		sessions: make(map[uint64]*session),
		tel:      newAgentTelemetry(&cfg),
	}
	a.readDelay.Store(int64(cfg.ReadDelay))
	a.wg.Add(1)
	go a.controlLoop()
	return a, nil
}

// Addr returns the agent's well-known control address.
func (a *Agent) Addr() string { return a.ctl.LocalAddr() }

// Close stops the agent and tears down all sessions.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	sess := make([]*session, 0, len(a.sessions))
	for _, s := range a.sessions {
		sess = append(sess, s)
	}
	a.mu.Unlock()
	a.ctl.Close()
	for _, s := range sess {
		s.conn.Close()
	}
	a.wg.Wait()
	a.tel.Close()
	return nil
}

func (a *Agent) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// send marshals and transmits one packet, logging failures. Control
// replies and error paths come through here; the per-session data path
// uses session.send, which goes through the session's send batch.
func (a *Agent) send(c transport.PacketConn, to string, p *wire.Packet) {
	buf, err := wire.Marshal(p)
	if err != nil {
		a.cfg.Logf("agent %s: marshal %v: %v", a.host.Name(), p.Type, err) //lint:allow hotalloc cold marshal-failure log
		return
	}
	if err := c.WriteTo(buf, to); err != nil {
		a.cfg.Logf("agent %s: send %v to %s: %v", a.host.Name(), p.Type, to, err) //lint:allow hotalloc cold send-failure log
	}
}

// joinSpan opens an agent-side child span under the client-minted trace
// context a request packet carries. A nil tracer or an untraced packet
// yields a nil span; every *obs.Span method is nil-safe, so handlers
// instrument unconditionally.
func (a *Agent) joinSpan(ctx obs.SpanContext, name string) *obs.Span {
	return a.cfg.Tracer.StartRemote(ctx, "agent", name, -1)
}

// sendError reports a failed request to the client. Corruption errors
// are additionally counted: they mean the store detected damaged bytes
// at rest and refused to serve them.
func (a *Agent) sendError(c transport.PacketConn, to string, req *wire.Packet, err error) {
	if integrity.IsCorrupt(err) {
		a.tel.Note(evCorrupt, -1, nil, "req %d: %v", req.ReqID, err) //lint:allow hotalloc error replies are the cold path
	}
	a.send(c, to, &wire.Packet{ //lint:allow hotalloc error replies are the cold path
		Header:  wire.Header{Type: wire.TError, ReqID: req.ReqID, Handle: req.Handle},
		Payload: wire.AppendError(nil, err.Error()),
	})
}

// ReadDelay reports the injected read-service delay.
func (a *Agent) ReadDelay() time.Duration { return time.Duration(a.readDelay.Load()) }

// SetReadDelay changes the injected read-service delay at runtime — the
// fault-injection hook behind the overload drills' "slowed agent".
func (a *Agent) SetReadDelay(d time.Duration) { a.readDelay.Store(int64(d)) }

// acquireRead claims one slot in the bounded read-service gate; a false
// return means the agent is over its admission quota and the request
// must be shed.
func (a *Agent) acquireRead() bool {
	if a.inflightReads.Add(1) > int32(a.cfg.MaxInflightReads) {
		a.inflightReads.Add(-1)
		return false
	}
	return true
}

func (a *Agent) releaseRead() { a.inflightReads.Add(-1) }

// shed refuses a request with an explicit pushback reply. Pushback is
// backpressure, not failure: the client must pace or retry elsewhere,
// and must not count the refusal against the agent's health lifecycle.
func (a *Agent) shed(c transport.PacketConn, to string, req *wire.Packet, sp *obs.Span, reason wire.PushbackReason) {
	info := wire.PushbackInfo{Reason: reason}
	k := evShedDeadline
	if reason != wire.PushDeadlineExpired {
		info.RetryAfter = a.cfg.PushbackRetryAfter
		k = evShedQueue
	}
	a.tel.Note(k, -1, sp, "req %d: %s", req.ReqID, reason) //lint:allow hotalloc pushback is the overload path, already shedding work
	a.send(c, to, &wire.Packet{                            //lint:allow hotalloc pushback is the overload path, already shedding work
		Header:  wire.Header{Type: wire.TPushback, ReqID: req.ReqID, Handle: req.Handle},
		Payload: wire.AppendPushback(nil, &info),
	})
}

// controlLoop serves the well-known port: open, stat, remove.
func (a *Agent) controlLoop() {
	defer a.wg.Done()
	buf := make([]byte, wire.MaxPacket)
	var pkt wire.Packet
	for {
		a.ctl.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, from, err := a.ctl.ReadFrom(buf)
		if err != nil {
			if transport.IsTimeout(err) {
				if a.isClosed() {
					return
				}
				continue
			}
			return // closed
		}
		if err := wire.Unmarshal(buf[:n], &pkt); err != nil {
			a.tel.Note(evBadPacket, -1, nil, "%s: from %s: %v", a.host.Name(), from, err)
			continue
		}
		switch pkt.Type {
		case wire.TOpen:
			a.handleOpen(&pkt, from)
		case wire.TStat:
			a.handleStat(&pkt, from)
		case wire.TRemove:
			a.handleRemove(&pkt, from)
		case wire.TList:
			a.handleList(&pkt, from)
		case wire.TPing:
			a.handlePing(&pkt, from)
		default:
			a.cfg.Logf("agent %s: unexpected %v on control port", a.host.Name(), pkt.Type)
		}
	}
}

func (a *Agent) handleOpen(pkt *wire.Packet, from string) {
	sp := a.joinSpan(pkt.Trace, "agent_open")
	defer sp.Finish()
	var req wire.OpenRequest
	fail := func(err error) {
		sp.SetError(err)
		a.tel.Note(evOpenReject, -1, sp, "%s: %v", req.Name, err)
		a.sendError(a.ctl, from, pkt, err)
	}
	req, err := wire.ParseOpenRequest(pkt.Payload)
	if err != nil {
		fail(err)
		return
	}
	obj, err := a.st.Open(req.Name, pkt.Flags&wire.FCreate != 0)
	if err != nil {
		fail(err)
		return
	}
	if pkt.Flags&wire.FTrunc != 0 {
		if err := obj.Truncate(0); err != nil {
			obj.Close()
			fail(err)
			return
		}
	}
	size, err := obj.Size()
	if err != nil {
		obj.Close()
		fail(err)
		return
	}
	a.mu.Lock()
	if len(a.sessions) >= a.cfg.MaxSessions {
		a.mu.Unlock()
		obj.Close()
		fail(fmt.Errorf("too many open files (%d)", a.cfg.MaxSessions))
		return
	}
	a.mu.Unlock()
	conn, err := a.host.Listen("0")
	if err != nil {
		obj.Close()
		fail(err)
		return
	}
	// The session's data packets are as large as both ends' media carry
	// and buffer: the client's half arrived in the request, this end's is
	// what the session conn reports. A client that sent no limits gets
	// the base packet and a reply without the field, byte for byte the
	// original protocol's.
	var reply wire.OpenReply
	packet := wire.MaxPacket
	if req.MaxPacket >= wire.JumboPacket {
		m := transport.MediumOf(conn)
		packet = wire.SessionPacket(m.MaxDatagram, m.RecvBuffer, int64(req.Window))
		reply.Packet = uint32(packet)
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		conn.Close()
		obj.Close()
		return
	}
	a.nextH++
	h := a.nextH
	s := newSession(a, h, obj, conn, wire.DataPayload(packet))
	a.sessions[h] = s
	live := len(a.sessions)
	a.mu.Unlock()
	a.tel.sessions.Set(int64(live))
	a.tel.Note(evOpen, -1, sp, "%s: session %d opened, %d-byte packets (%d live)", req.Name, h, packet, live)
	a.wg.Add(1)
	go s.run()

	_, reply.Port, _ = transport.SplitAddr(conn.LocalAddr())
	reply.Size = size
	a.send(a.ctl, from, &wire.Packet{
		Header:  wire.Header{Type: wire.TOpenReply, ReqID: pkt.ReqID, Handle: h},
		Payload: wire.AppendOpenReply(nil, &reply),
	})
}

func (a *Agent) handleStat(pkt *wire.Packet, from string) {
	size, err := a.st.Stat(wireName(pkt.Payload))
	reply := wire.StatReply{Size: size, Exists: err == nil}
	if err != nil && err != store.ErrNotExist {
		a.sendError(a.ctl, from, pkt, err)
		return
	}
	a.send(a.ctl, from, &wire.Packet{
		Header:  wire.Header{Type: wire.TStatReply, ReqID: pkt.ReqID},
		Payload: wire.AppendStatReply(nil, &reply),
	})
}

func (a *Agent) handleRemove(pkt *wire.Packet, from string) {
	err := a.st.Remove(wireName(pkt.Payload))
	if err != nil && err != store.ErrNotExist {
		a.sendError(a.ctl, from, pkt, err)
		return
	}
	a.send(a.ctl, from, &wire.Packet{
		Header: wire.Header{Type: wire.TRemoveReply, ReqID: pkt.ReqID},
	})
}

// handlePing replies with the agent's status: object count, open
// sessions, and total fragment bytes.
func (a *Agent) handlePing(pkt *wire.Packet, from string) {
	names, err := a.st.List()
	if err != nil {
		a.sendError(a.ctl, from, pkt, err)
		return
	}
	var bytes int64
	for _, n := range names {
		if sz, err := a.st.Stat(n); err == nil {
			bytes += sz
		}
	}
	a.mu.Lock()
	sessions := len(a.sessions)
	a.mu.Unlock()
	a.send(a.ctl, from, &wire.Packet{
		Header: wire.Header{Type: wire.TPingReply, ReqID: pkt.ReqID},
		Payload: wire.AppendPingReply(nil, &wire.PingReply{
			Objects:  uint32(len(names)),
			Sessions: uint32(sessions),
			Bytes:    bytes,
		}),
	})
}

// handleList streams the store's object names, FLast marking the end.
func (a *Agent) handleList(pkt *wire.Packet, from string) {
	names, err := a.st.List()
	if err != nil {
		a.sendError(a.ctl, from, pkt, err)
		return
	}
	seq := uint32(0)
	for {
		payload, consumed := wire.AppendNames(nil, names)
		names = names[consumed:]
		flags := uint16(0)
		if len(names) == 0 {
			flags = wire.FLast
		}
		a.send(a.ctl, from, &wire.Packet{
			Header: wire.Header{
				Type: wire.TListReply, ReqID: pkt.ReqID,
				Offset: int64(seq), Flags: flags,
			},
			Payload: payload,
		})
		seq++
		if len(names) == 0 || consumed == 0 {
			return
		}
	}
}

// wireName decodes the name payload shared by stat and remove.
func wireName(b []byte) string {
	r, err := wire.ParseOpenRequest(b)
	if err != nil {
		return ""
	}
	return r.Name
}

// SessionCount reports the number of open file sessions.
func (a *Agent) SessionCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sessions)
}

// dropSession removes s from the session table.
func (a *Agent) dropSession(s *session) {
	a.mu.Lock()
	delete(a.sessions, s.handle)
	live := len(a.sessions)
	a.mu.Unlock()
	a.tel.sessions.Set(int64(live))
}

// writeState tracks one write burst from first sight (announcement or
// overtaking data) to DoneTTL after its acknowledgement. Arriving data
// packets are buffered in data (taken from the session's free list at
// announce time) and applied to the store in one WriteAt once every
// expected byte is present, so the store never sees a torn burst — which
// also lets a checksumming store treat unit-aligned bursts as
// whole-block overwrites. Until it completes a burst is in the session's
// open set; afterwards it waits on the done queue to re-acknowledge
// duplicate announcements.
type writeState struct {
	reqID     uint32
	announced bool
	off       int64
	length    int64
	flags     uint16
	// data is the burst buffer, owned by this burst from announce until
	// apply or abandon and then handed back to session.burstFree. It is
	// recycled without clearing: all-or-nothing apply means only bytes
	// this burst's own packets wrote ever reach the store.
	data []byte
	// early holds data packets that overtook the announcement
	// (datagrams reorder); they are replayed into data once the
	// announcement sizes the buffer.
	early      []earlyData
	earlyBytes int64
	received   extent.Set
	first      time.Time // when the burst was first seen (announce or data)
	progress   time.Time // last time new data arrived
	prompted   time.Time // last time a resend was requested
	done       bool
	doneAt     time.Time
	openIdx    int // position in session.open while the burst is open
	from       string
	// sp is the agent-side service span joined from the announcement's
	// trace context (data packets travel untraced). It spans announce →
	// ack, nil when the burst is untraced, and is nilled after Finish so
	// duplicate announcements cannot double-close it.
	sp *obs.Span
}

// finishSpan closes the burst's service span exactly once.
func (w *writeState) finishSpan(err error) {
	w.sp.SetError(err)
	w.sp.Finish()
	w.sp = nil
}

// earlyData is one buffered pre-announcement data packet.
type earlyData struct {
	off int64
	b   []byte
}

// Free list bounds: enough burst buffers for the bursts a client keeps in
// flight (core's WriteWindow defaults to 2), no buffer so large that an
// idle session pins real memory, and enough burst records for the reap
// after every run of datagrams without a quiet session keeping its
// DoneTTL population alive.
const (
	burstFreeMax      = 4
	burstFreeMaxBytes = 1 << 20
	writeFreeMax      = 64
)

// session is the secondary thread of control serving one open file.
type session struct {
	agent  *Agent
	handle uint64
	obj    store.Object
	conn   transport.PacketConn
	// payload is the data bytes one datagram of this session carries,
	// agreed with the client at open (wire.MaxPayload or
	// wire.JumboPayload); it sizes the receive buffer and read replies.
	payload int

	// writes indexes every burst the session remembers by ReqID: the
	// open ones and those completed within DoneTTL. The per-packet path
	// only looks bursts up in it; the periodic work walks open and done.
	writes map[uint32]*writeState
	// open holds the bursts not yet completed — normally no more than
	// the client's write window — and is all the stall sweep walks.
	open []*writeState
	// done queues completed bursts in completion order, which is doneAt
	// order because one goroutine serves the session; done[:doneHead]
	// has been reaped.
	done     []*writeState
	doneHead int
	// lastSweep is when the open set was last examined.
	lastSweep time.Time
	// burstFree recycles burst buffers between announcements.
	burstFree [][]byte
	// writeFree recycles reaped burst records, at most writeFreeMax.
	writeFree []*writeState
	lastSeen  time.Time

	// out sends the session's data path in runs: a read burst's data
	// packets leave in as few calls as the conn allows. The session is
	// served by a single goroutine, so its buffer is reused without
	// locking (transports copy on send).
	out *wire.Batch
	// chunk is the bytes serveRead asks the store for per call:
	// Config.ReadChunk, or one default burst of this session's payload.
	chunk int64
	// rbuf holds chunk k of a read burst in rbuf[k%2], so a one-chunk
	// burst touches only the first; each grows to at most chunk.
	rbuf [2][]byte
	// ahead carries the reader goroutine's outcome (see serveRead).
	ahead chan error
}

func newSession(a *Agent, handle uint64, obj store.Object, conn transport.PacketConn, payload int) *session {
	chunk := int64(a.cfg.ReadChunk)
	if chunk <= 0 {
		chunk = wire.BurstPackets * int64(payload)
	}
	return &session{
		agent:   a,
		handle:  handle,
		obj:     obj,
		conn:    conn,
		payload: payload,
		writes:  make(map[uint32]*writeState),
		out:     wire.NewBatch(conn, wire.HeaderSize+payload+wire.TrailerSize),
		chunk:   chunk,
		ahead:   make(chan error, 1),
	}
}

// send hands one packet to the session's batch: a data packet may wait
// for the rest of its run, anything else leaves at once.
func (s *session) send(to string, p *wire.Packet) {
	if err := s.out.Send(p, to); err != nil {
		s.agent.cfg.Logf("agent %s: send %v to %s: %v", s.agent.host.Name(), p.Type, to, err) //lint:allow hotalloc cold send-failure log
	}
}

func (s *session) run() {
	defer s.agent.wg.Done()
	defer s.obj.Close()
	defer s.conn.Close()
	defer s.abandonWrites()

	cfg := &s.agent.cfg
	buf := make([]byte, transport.RunBuffer(s.conn, wire.HeaderSize+s.payload+wire.TrailerSize))
	var pkt wire.Packet
	now := time.Now()
	s.lastSeen = now
	for {
		// One clock reading per run serves the deadline, the handlers and
		// the burst bookkeeping. After a long read burst it is stale,
		// which only makes the next tick come early.
		s.conn.SetReadDeadline(now.Add(cfg.ResendCheck))
		n, seg, from, err := transport.ReadSegments(s.conn, buf)
		now = time.Now()
		switch {
		case err == nil:
			s.lastSeen = now
			// Every datagram of a run is dispatched, in order, where it
			// lies.
			for run := buf[:n]; len(run) > 0; {
				var dgram []byte
				dgram, run = transport.NextSegment(run, seg)
				if uerr := wire.Unmarshal(dgram, &pkt); uerr != nil {
					s.agent.tel.Note(evBadPacket, -1, nil, "%s: session %d: %v", s.agent.host.Name(), s.handle, uerr)
					continue
				}
				if s.dispatch(&pkt, from, now) {
					s.agent.dropSession(s)
					return
				}
			}
		case transport.IsTimeout(err):
			if now.Sub(s.lastSeen) > cfg.SessionIdle || s.agent.isClosed() {
				if !s.agent.isClosed() {
					s.agent.tel.Note(evIdleReap, -1, nil, "session %d idle for %v, reaped", s.handle, now.Sub(s.lastSeen))
				}
				s.agent.dropSession(s)
				return
			}
		default:
			s.agent.dropSession(s)
			return
		}
		s.checkWrites(now)
	}
}

// dispatch handles one packet that arrived at now; it returns true when
// the session should end.
//
//swift:hotpath
func (s *session) dispatch(pkt *wire.Packet, from string, now time.Time) (closed bool) {
	switch pkt.Type {
	case wire.TRead:
		s.serveRead(pkt, from)
	case wire.TWrite:
		s.handleWriteAnnounce(pkt, from, now)
	case wire.TData:
		s.handleData(pkt, from, now)
	case wire.TSync:
		sp := s.agent.joinSpan(pkt.Trace, "agent_sync")
		err := s.agent.syncTimed(s.obj.Sync)
		sp.SetError(err)
		sp.Finish()
		if err != nil {
			s.agent.sendError(s.conn, from, pkt, err)
			return false
		}
		s.reply(from, wire.TSyncReply, pkt.ReqID)
	case wire.TTrunc:
		sp := s.agent.joinSpan(pkt.Trace, "agent_trunc")
		err := s.obj.Truncate(pkt.Offset)
		sp.SetError(err)
		sp.Finish()
		if err != nil {
			s.agent.sendError(s.conn, from, pkt, err)
			return false
		}
		s.reply(from, wire.TTruncReply, pkt.ReqID)
	case wire.TClose:
		s.reply(from, wire.TCloseReply, pkt.ReqID)
		return true
	default:
		s.agent.cfg.Logf("agent %s session %d: unexpected %v", s.agent.host.Name(), s.handle, pkt.Type) //lint:allow hotalloc unexpected packet types are the cold path
	}
	return false
}

// reply answers a request with a header-only packet of type t.
func (s *session) reply(from string, t wire.Type, reqID uint32) {
	p := wire.Packet{Header: wire.Header{Type: t, ReqID: reqID, Handle: s.handle}}
	s.send(from, &p)
}

// serveRead streams [Offset, Offset+Length) to the client as data packets,
// chunk by chunk. Chunk k is read into the session's rbuf on the session
// goroutine or, past the first, by a reader goroutine started while chunk
// k-1 was sent: a default burst is one store read and no goroutine, and
// on a longer one disk service overlaps transmission the way the
// prototype's kernel read-ahead overlapped its sends. Bytes beyond
// end-of-fragment are zero-filled, which is both the sparse-file
// convention and what parity reconstruction expects.
//
//swift:hotpath
func (s *session) serveRead(pkt *wire.Packet, from string) {
	tel := s.agent.tel
	tel.Count(evReadRequest, -1)
	sp := s.agent.joinSpan(pkt.Trace, "agent_read_serve")
	defer sp.Finish()
	sp.AnnotateRange("", pkt.Offset, pkt.Offset+int64(pkt.Length))
	if !s.agent.acquireRead() {
		s.agent.shed(s.conn, from, pkt, sp, wire.PushQueueFull)
		return
	}
	defer s.agent.releaseRead()
	// The deadline extension carries the remaining budget at client
	// send; the agent anchors it against its own clock at dequeue (no
	// clock sync), then checks it wherever service time accrues.
	var expiry time.Time
	if pkt.Deadline > 0 {
		expiry = time.Now().Add(pkt.Deadline)
	}
	if delay := s.agent.ReadDelay(); delay > 0 {
		time.Sleep(delay)
		sp.Annotate("injected read delay %v", delay) //lint:allow hotalloc fault-injection drill path, never taken in production profiles
		// A uniformly-injected delay never trips the live-p99 keep
		// criterion (every op is equally slow); mark the drill explicitly
		// so `swiftctl trace -slow` surfaces it.
		sp.MarkFault()
	}
	if !expiry.IsZero() && time.Now().After(expiry) {
		s.agent.shed(s.conn, from, pkt, sp, wire.PushDeadlineExpired)
		return
	}
	start := time.Now()
	end := pkt.Offset + int64(pkt.Length)
	// One packet struct serves the whole burst; only the per-datagram
	// header fields and the payload window change between sends.
	dp := wire.Packet{Header: wire.Header{Type: wire.TData, ReqID: pkt.ReqID, Handle: s.handle}}
	var err error
	expired := false
	for k, off := 0, pkt.Offset; off < end; k, off = k+1, off+s.chunk {
		n := min(s.chunk, end-off)
		if k == 0 {
			err = s.readChunk(0, off, n)
		} else {
			err = <-s.ahead
		}
		if err != nil {
			break
		}
		// A budget that runs out mid-stream stops the store reads as
		// well as the sends: the client has moved on, and neither should
		// displace work that can still meet its deadline.
		if expired = !expiry.IsZero() && time.Now().After(expiry); expired {
			break
		}
		if next := off + n; next < end {
			go func() { s.ahead <- s.readChunk((k+1)%2, next, min(s.chunk, end-next)) }() //lint:allow hotalloc one reader goroutine per chunk after the first: only a burst longer than one chunk has a next
		}
		for sent, data := int64(0), s.rbuf[k%2][:n]; sent < n; {
			p := min(n-sent, int64(s.payload))
			dp.Offset = off + sent
			dp.Length = uint32(p)
			dp.Flags = 0
			if off+sent+p == end {
				dp.Flags = wire.FLast
			}
			dp.Payload = data[sent : sent+p]
			s.send(from, &dp)
			tel.Add(evReadBytes, -1, p)
			sent += p
		}
	}
	if ferr := s.out.Flush(); ferr != nil {
		s.agent.cfg.Logf("agent %s: send data to %s: %v", s.agent.host.Name(), from, ferr) //lint:allow hotalloc cold send-failure log
	}
	switch {
	case err != nil:
		sp.SetError(err)
		s.agent.sendError(s.conn, from, pkt, err)
	case expired:
		s.agent.shed(s.conn, from, pkt, sp, wire.PushDeadlineExpired)
	}
	tel.readServeLat.Observe(time.Since(start))
}

// readChunk fills rbuf[i] with fragment bytes [off, off+n), zeros past
// end-of-fragment: the buffer is reused from burst to burst.
func (s *session) readChunk(i int, off, n int64) error {
	if int64(cap(s.rbuf[i])) < n {
		s.rbuf[i] = make([]byte, n) //lint:allow hotalloc a session read buffer, grown to at most one chunk
	}
	buf := s.rbuf[i][:n]
	got, err := s.obj.ReadAt(buf, off)
	if int64(got) < n && err != nil && !isEOF(err) {
		return err
	}
	clear(buf[got:])
	return nil
}

func isEOF(err error) bool { return errors.Is(err, io.EOF) }

// openWrite starts tracking a burst first seen at now, recycling a record.
func (s *session) openWrite(reqID uint32, now time.Time) *writeState {
	var w *writeState
	if k := len(s.writeFree) - 1; k >= 0 {
		w = s.writeFree[k]
		s.writeFree[k] = nil
		s.writeFree = s.writeFree[:k]
	} else {
		w = new(writeState) //lint:allow hotalloc a record is allocated only until reapDone has given one back
	}
	w.received.Reset()
	*w = writeState{reqID: reqID, received: w.received, first: now, progress: now, openIdx: len(s.open)}
	s.writes[reqID] = w
	s.open = append(s.open, w)
	return w
}

// closeWrite takes w out of the open set and hands its buffer back to
// the free list. The caller decides what becomes of the writes entry:
// completed bursts keep theirs until reaped, dropped ones lose it.
func (s *session) closeWrite(w *writeState) {
	last := len(s.open) - 1
	moved := s.open[last]
	s.open[w.openIdx] = moved
	moved.openIdx = w.openIdx
	s.open[last] = nil
	s.open = s.open[:last]
	s.releaseBurst(w.data)
	w.data = nil
}

// dropWrite forgets an open burst that will never complete (refused,
// failed to apply, orphaned, or cut off by the session ending), so a
// retry under the same ReqID starts clean.
func (s *session) dropWrite(w *writeState, err error) {
	w.finishSpan(err)
	s.closeWrite(w)
	delete(s.writes, w.reqID)
}

// acquireBurst returns an n-byte burst buffer, recycled when the free
// list has one large enough. The contents are whatever the previous
// burst left there.
//
//swift:pool acquire
func (s *session) acquireBurst(n int64) []byte {
	if k := len(s.burstFree) - 1; k >= 0 {
		b := s.burstFree[k]
		s.burstFree[k] = nil
		s.burstFree = s.burstFree[:k]
		if int64(cap(b)) >= n {
			return b[:n]
		}
		// Too small: let it go, so the list converges on buffers that
		// fit the bursts this client actually sends.
	}
	return make([]byte, n) //lint:allow hotalloc a burst buffer is allocated only until the free list holds one that fits
}

// releaseBurst hands a burst buffer back for the next announcement.
//
//swift:pool release
func (s *session) releaseBurst(b []byte) {
	if cap(b) == 0 || cap(b) > burstFreeMaxBytes || len(s.burstFree) >= burstFreeMax {
		return
	}
	s.burstFree = append(s.burstFree, b)
}

// handleWriteAnnounce records the expected range of a write burst.
func (s *session) handleWriteAnnounce(pkt *wire.Packet, from string, now time.Time) {
	w := s.writes[pkt.ReqID]
	if w == nil {
		w = s.openWrite(pkt.ReqID, now)
	}
	if w.done {
		// Duplicate announcement after completion: re-acknowledge.
		s.ackWrite(w, from)
		return
	}
	if w.sp == nil {
		w.sp = s.agent.joinSpan(pkt.Trace, "agent_write_serve")
		w.sp.AnnotateRange("", pkt.Offset, pkt.Offset+int64(pkt.Length))
	}
	if int64(pkt.Length) > s.agent.cfg.MaxBurstBytes {
		err := fmt.Errorf("write burst of %d bytes exceeds limit %d", pkt.Length, s.agent.cfg.MaxBurstBytes) //lint:allow hotalloc oversize announcements are refused on the cold path
		s.dropWrite(w, err)
		s.agent.sendError(s.conn, from, pkt, err)
		return
	}
	w.announced = true
	w.off = pkt.Offset
	w.length = int64(pkt.Length)
	w.flags = pkt.Flags
	w.from = from
	if int64(len(w.data)) != w.length {
		s.releaseBurst(w.data)
		w.data = s.acquireBurst(w.length)
		w.received.Reset()
	}
	// Replay data packets that overtook this announcement.
	for _, e := range w.early {
		s.bufferData(w, e.off, e.b, now)
	}
	w.early, w.earlyBytes = nil, 0
	s.completeIfReady(w, from, now)
}

// bufferData copies one data payload into its burst buffer, rejecting
// ranges outside the announced burst.
//
//swift:hotpath
func (s *session) bufferData(w *writeState, off int64, payload []byte, now time.Time) bool {
	rel := off - w.off
	if rel < 0 || rel+int64(len(payload)) > w.length {
		s.agent.tel.Note(evBadPacket, -1, nil, "%s: session %d: data [%d,+%d) outside burst [%d,+%d)",
			s.agent.host.Name(), s.handle, off, len(payload), w.off, w.length) //lint:allow hotalloc out-of-burst rejects are the cold path
		return false
	}
	copy(w.data[rel:], payload)
	s.agent.tel.Count(evDataPacket, -1)
	s.agent.tel.Add(evWriteBytes, -1, int64(len(payload)))
	w.received.Add(off, int64(len(payload)))
	w.progress = now
	return true
}

// handleData buffers one write data packet into its announced burst.
// Packets that overtake the announcement are kept aside (the buffer
// cannot be sized without it) and replayed when it arrives; should the
// early stash overflow, the resend machinery recovers the payload.
//
//swift:hotpath
func (s *session) handleData(pkt *wire.Packet, from string, now time.Time) {
	if len(pkt.Payload) == 0 {
		return
	}
	w := s.writes[pkt.ReqID]
	if w == nil {
		w = s.openWrite(pkt.ReqID, now)
	}
	if w.done {
		return
	}
	if !w.announced {
		if w.earlyBytes+int64(len(pkt.Payload)) > s.agent.cfg.MaxBurstBytes {
			s.agent.tel.Count(evEarlyData, -1)
			return
		}
		b := make([]byte, len(pkt.Payload)) //lint:allow hotalloc overtaking-data stash, bounded by MaxBurstBytes
		copy(b, pkt.Payload)
		w.early = append(w.early, earlyData{off: pkt.Offset, b: b}) //lint:allow hotalloc overtaking-data stash, bounded by MaxBurstBytes
		w.earlyBytes += int64(len(b))
		w.progress = now
		return
	}
	if !s.bufferData(w, pkt.Offset, pkt.Payload, now) {
		return
	}
	w.from = from
	s.completeIfReady(w, from, now)
}

// completeIfReady applies and acknowledges the burst once every
// expected byte arrived. Apply failures (a full store, or a corrupt
// neighbouring block the merge would have to trust) are reported to
// the client and the burst state discarded so a retry starts clean.
func (s *session) completeIfReady(w *writeState, from string, now time.Time) {
	if !w.announced || w.done || !w.received.Contains(w.off, w.length) {
		return
	}
	// now is when the completing packet arrived; the store's share of
	// the burst's service time is measured on top of it.
	applyStart := time.Now()
	if w.length > 0 {
		if _, err := s.obj.WriteAt(w.data, w.off); err != nil {
			s.dropWrite(w, err)
			s.agent.sendError(s.conn, from, &wire.Packet{ //lint:allow hotalloc apply-failure reply is the cold path
				Header: wire.Header{Type: wire.TWrite, ReqID: w.reqID, Handle: s.handle},
			}, err)
			return
		}
	}
	s.closeWrite(w)
	if s.agent.cfg.SyncWrites || w.flags&wire.FSyncWrite != 0 {
		if err := s.agent.syncTimed(s.obj.Sync); err != nil {
			s.agent.cfg.Logf("agent %s: sync: %v", s.agent.host.Name(), err) //lint:allow hotalloc cold sync-failure log
		}
	}
	w.done = true
	w.doneAt = now
	s.done = append(s.done, w)
	w.finishSpan(nil)
	s.agent.tel.Count(evWriteBurst, -1)
	s.agent.tel.writeLat.Observe(now.Sub(w.first) + time.Since(applyStart))
	s.ackWrite(w, from)
}

func (s *session) ackWrite(w *writeState, from string) {
	p := wire.Packet{Header: wire.Header{
		Type: wire.TWriteAck, ReqID: w.reqID, Handle: s.handle,
		Offset: w.off, Length: uint32(w.length),
	}}
	s.send(from, &p)
}

// abandonWrites drops the bursts still open when the session ends,
// closing their service spans so the tracer's trace can flush instead of
// waiting for the stale-trace eviction timer.
func (s *session) abandonWrites() {
	for len(s.open) > 0 {
		s.dropWrite(s.open[len(s.open)-1], errors.New("session closed with burst incomplete"))
	}
}

// checkWrites is the burst bookkeeping that runs after every run of
// datagrams received and on every read-deadline tick. Its cost does not
// depend on how many bursts completed recently: the done queue is reaped
// from its head, and the open set is swept at most once per ResendCheck.
func (s *session) checkWrites(now time.Time) {
	s.reapDone(now)
	if len(s.open) > 0 && now.Sub(s.lastSweep) >= s.agent.cfg.ResendCheck {
		s.lastSweep = now
		s.sweepOpen(now)
	}
}

// reapDone forgets the bursts that completed more than DoneTTL ago, and
// recycles their records: they are the head of the done queue, so each
// is visited once, when it expires — amortised O(1) per call.
//
//swift:hotpath
func (s *session) reapDone(now time.Time) {
	ttl := s.agent.cfg.DoneTTL
	for s.doneHead < len(s.done) {
		w := s.done[s.doneHead]
		if now.Sub(w.doneAt) <= ttl {
			break
		}
		if s.writes[w.reqID] == w {
			delete(s.writes, w.reqID)
		}
		if len(s.writeFree) < writeFreeMax {
			s.writeFree = append(s.writeFree, w)
		}
		s.done[s.doneHead] = nil
		s.doneHead++
	}
	if s.doneHead > len(s.done)/2 {
		// Slide the live tail down so the queue's memory stays
		// proportional to the bursts inside DoneTTL.
		n := copy(s.done, s.done[s.doneHead:])
		clear(s.done[n:])
		s.done = s.done[:n]
		s.doneHead = 0
	}
}

// sweepOpen examines the open bursts: data that was never announced is
// dropped after DoneTTL without progress, and an announced burst that
// stalled for ResendAfter is prompted for what it still misses.
func (s *session) sweepOpen(now time.Time) {
	for i := 0; i < len(s.open); {
		w := s.open[i]
		s.sweepBurst(w, now)
		if i < len(s.open) && s.open[i] == w {
			i++ // still open; otherwise the last burst was swapped into i
		}
	}
}

func (s *session) sweepBurst(w *writeState, now time.Time) {
	cfg := &s.agent.cfg
	idle := now.Sub(w.progress)
	if !w.announced {
		if idle > cfg.DoneTTL {
			s.agent.tel.Note(evOrphanBurst, -1, nil, "session %d req %d: %d bytes never announced, dropped after %v",
				s.handle, w.reqID, w.earlyBytes, idle)
			s.dropWrite(w, errors.New("burst data never announced"))
		}
		return
	}
	if idle < cfg.ResendAfter || now.Sub(w.prompted) < cfg.ResendAfter {
		return
	}
	missing := w.received.Missing(w.off, w.length)
	if len(missing) == 0 {
		s.completeIfReady(w, w.from, now)
		return
	}
	ranges := make([]wire.Range, 0, len(missing))
	for _, m := range missing {
		ranges = append(ranges, wire.Range{Off: m.Off, Len: m.Len})
	}
	w.prompted = now
	s.agent.tel.Note(evResendPrompt, -1, w.sp, "session %d req %d: %d missing ranges after %v stall",
		s.handle, w.reqID, len(ranges), idle)
	s.agent.send(s.conn, w.from, &wire.Packet{
		Header: wire.Header{
			Type: wire.TResend, ReqID: w.reqID, Handle: s.handle,
			Offset: w.off, Length: uint32(w.length),
		},
		Payload: wire.AppendResend(nil, ranges),
	})
}
