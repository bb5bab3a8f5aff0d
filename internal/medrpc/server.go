// Package medrpc puts a mediator replica on the wire. It serves the
// TMed* control packets over the same datagram transport the storage
// agents use (one request, one reply, client-driven retransmission), and
// provides the matching client stub, which doubles as the mediator.Peer
// transport for inter-replica session mirroring.
//
// The mediator package itself stays transport-free (and under the
// clockcheck analyzer's no-wall-clock rule); everything that touches
// sockets, deadlines, or retransmission timers lives here.
package medrpc

import (
	"fmt"
	"sync"
	"time"

	"swift/internal/mediator"
	"swift/internal/obs"
	"swift/internal/transport"
	"swift/internal/wire"
)

// ServerConfig configures a mediator replica's wire endpoint.
type ServerConfig struct {
	Host transport.Host     // machine to listen on
	Port string             // well-known control port
	Med  *mediator.Mediator // the replica being served
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records mediator-side service spans under
	// the trace contexts client request packets carry. The mediator
	// package itself is clock-free, so the admission/renew spans open
	// here, at the wire seam. Nil disables tracing.
	Tracer *obs.Tracer
}

// replyKey identifies one logical request for retransmit dedup: the
// client stub opens a fresh ephemeral endpoint per RPC and keeps the
// same ReqID across retransmissions of it, so (source address, ReqID)
// is stable for one request and unique across requests.
type replyKey struct {
	from  string
	reqID uint32
}

// openCacheMax bounds the TMedOpen reply cache. The cache only has to
// cover a client's retransmission window (a handful of packets over at
// most a few seconds); FIFO eviction of old entries is plenty.
const openCacheMax = 1024

// events is the server's event table. A late shed is a request whose
// client-carried deadline budget elapsed while the replica served it: the
// reply is suppressed (and an admitted session released) because nobody
// is waiting for it.
var (
	events        obs.EventTable
	evLateShed    = events.Kind(obs.EventKind{Trace: "late_shed", Series: "swift_medrpc_late_sheds_total", Help: "Requests whose client deadline budget elapsed during service; replies suppressed."})
	evRehome      = events.Kind(obs.EventKind{Trace: "rehome", Retry: true})
	evSendFail    = events.Kind(obs.EventKind{Trace: "send_fail", Logged: true})
	evBadPacket   = events.Kind(obs.EventKind{Trace: "bad_packet", Logged: true})
	evReleaseFail = events.Kind(obs.EventKind{Trace: "release_fail", Logged: true})
)

// Server serves one mediator replica's control port.
type Server struct {
	cfg ServerConfig
	ctl transport.PacketConn
	ev  *obs.Events // in the mediator's registry, under its replica label

	mu        sync.Mutex
	closed    bool
	openCache map[replyKey][]byte // marshaled TMedOpenReply per request
	openOrder []replyKey          // FIFO eviction order
	wg        sync.WaitGroup
}

// Serve starts serving cfg.Med on cfg.Host:cfg.Port.
func Serve(cfg ServerConfig) (*Server, error) {
	if cfg.Med == nil {
		return nil, fmt.Errorf("medrpc: no mediator to serve")
	}
	ctl, err := cfg.Host.Listen(cfg.Port)
	if err != nil {
		return nil, fmt.Errorf("medrpc: listen %s: %w", cfg.Port, err)
	}
	var lbl obs.Labels
	if name := cfg.Med.Name(); name != "" {
		lbl = obs.Labels{"replica": name}
	}
	s := &Server{cfg: cfg, ctl: ctl,
		ev: obs.NewEvents(cfg.Med.Obs(), obs.EventConfig{Layer: "medrpc", Table: &events, Labels: lbl, Logf: cfg.Logf})}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Addr returns the server's control address.
func (s *Server) Addr() string { return s.ctl.LocalAddr() }

// Close stops serving. The mediator itself is not closed — the owner
// decides whether the replica drains, dies, or moves.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.ctl.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// send marshals p and writes it to to, returning the datagram (nil when p
// does not marshal).
func (s *Server) send(to string, p *wire.Packet) []byte {
	buf, err := wire.Marshal(p)
	if err != nil {
		s.ev.Note(evSendFail, -1, nil, "%s: marshal %v: %v", s.Addr(), p.Type, err)
		return nil
	}
	s.write(to, buf)
	return buf
}

// write sends one marshaled datagram to to.
func (s *Server) write(to string, buf []byte) {
	if err := s.ctl.WriteTo(buf, to); err != nil {
		s.ev.Note(evSendFail, -1, nil, "%s: send to %s: %v", s.Addr(), to, err)
	}
}

// sendError answers req with err, recording it on req's span sp.
func (s *Server) sendError(to string, req *wire.Packet, sp *obs.Span, err error) {
	sp.SetError(err)
	s.send(to, &wire.Packet{
		Header:  wire.Header{Type: wire.TError, ReqID: req.ReqID, Handle: req.Handle},
		Payload: wire.AppendError(nil, err.Error()),
	})
}

// loop serves the control port until Close.
func (s *Server) loop() {
	defer s.wg.Done()
	buf := make([]byte, wire.MaxPacket)
	var pkt wire.Packet
	for {
		s.ctl.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, from, err := s.ctl.ReadFrom(buf)
		if err != nil {
			if transport.IsTimeout(err) {
				if s.isClosed() {
					return
				}
				continue
			}
			return // closed
		}
		if err := wire.Unmarshal(buf[:n], &pkt); err != nil {
			s.ev.Note(evBadPacket, -1, nil, "%s: from %s: %v", s.Addr(), from, err)
			continue
		}
		if pkt.Type == wire.TMedInvalidate {
			// A coherence round with declared writes delivers its
			// generation bumps to the peers before it answers. It runs off
			// the loop so this replica keeps applying the peers' mirrors
			// meanwhile: two replicas publishing to each other would
			// otherwise each wait out the other's RPC budget.
			req := pkt
			req.Payload = append([]byte(nil), pkt.Payload...)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(from, &req)
			}()
			continue
		}
		s.handle(from, &pkt)
	}
}

// handle dispatches one request. Every request gets exactly one reply
// (or a TError). Retransmitted requests are re-executed for every
// operation that is idempotent or last-writer-wins (renew, close,
// mirror, status, drain); TMedOpen is neither — re-admitting would
// double-reserve capacity as an orphan session nothing ever renews or
// closes — so successful open replies are cached by (source, ReqID) and
// replayed verbatim when the reply was lost and the client retransmits.
func (s *Server) handle(from string, pkt *wire.Packet) {
	med := s.cfg.Med
	t0 := time.Now()
	switch pkt.Type {
	case wire.TMedOpen:
		sp := s.cfg.Tracer.StartRemote(pkt.Trace, "mediator", "admit", -1)
		defer sp.Finish()
		if buf := s.cachedOpenReply(from, pkt.ReqID); buf != nil {
			sp.Annotate("replayed cached open reply")
			s.write(from, buf)
			return
		}
		req, err := wire.ParseMedOpenRequest(pkt.Payload)
		if err != nil {
			s.sendError(from, pkt, sp, err)
			return
		}
		rec, err := med.Admit(mediator.Requirements{
			Rate:         req.Rate,
			Redundancy:   req.Redundancy,
			ParityShards: int(req.ParityShards),
			Key:          req.Key,
		}, pkt.Trace)
		if err != nil {
			s.sendError(from, pkt, sp, err)
			return
		}
		if d := pkt.Deadline; d > 0 && time.Since(t0) > d {
			// The client's whole retry budget elapsed while admission
			// ran: nobody reads this reply, and nothing would ever renew
			// or close the session it carries. Release it instead.
			if cerr := med.CloseSession(rec.ID); cerr != nil {
				s.ev.Note(evReleaseFail, -1, sp, "%s: shed session %d: %v", s.Addr(), rec.ID, cerr)
			}
			s.ev.Note(evLateShed, -1, sp, "client budget %v elapsed during admit", d)
			return
		}
		sp.Annotate("session %d admitted, home %s", rec.ID, rec.Home)
		w, err := toWireRecord(rec)
		if err != nil {
			s.sendError(from, pkt, sp, err)
			return
		}
		// The loop serves the next request only after this one, so the
		// reply is cached before any retransmission can look for it.
		if buf := s.send(from, &wire.Packet{
			Header:  wire.Header{Type: wire.TMedOpenReply, ReqID: pkt.ReqID, Handle: rec.ID},
			Payload: wire.AppendMedRecord(nil, &w),
		}); buf != nil {
			s.cacheOpenReply(from, pkt.ReqID, buf)
		}
	case wire.TMedRenew:
		sp := s.cfg.Tracer.StartRemote(pkt.Trace, "mediator", "renew", -1)
		defer sp.Finish()
		w, err := wire.ParseMedRecord(pkt.Payload)
		if err != nil {
			s.sendError(from, pkt, sp, err)
			return
		}
		rec := fromWireRecord(&w)
		home, err := med.RenewSession(rec, pkt.Trace)
		if err != nil {
			s.sendError(from, pkt, sp, err)
			return
		}
		if home != rec.Home {
			// The lease changed hands: this replica adopted (or
			// re-homed) a session whose home was unreachable.
			s.ev.Note(evRehome, -1, sp, "session %d re-homed %s -> %s", rec.ID, rec.Home, home)
		}
		if d := pkt.Deadline; d > 0 && time.Since(t0) > d {
			// Renew is idempotent, so a late one needs no undo — but the
			// client has moved on; don't waste the reply send.
			s.ev.Note(evLateShed, -1, sp, "client budget %v elapsed during renew", d)
			return
		}
		s.send(from, &wire.Packet{
			Header:  wire.Header{Type: wire.TMedRenewReply, ReqID: pkt.ReqID, Handle: pkt.Handle},
			Payload: wire.AppendMedHome(nil, &wire.MedHome{Home: home}),
		})
	case wire.TMedClose:
		sp := s.cfg.Tracer.StartRemote(pkt.Trace, "mediator", "close", -1)
		defer sp.Finish()
		if err := med.CloseSession(pkt.Handle); err != nil {
			s.sendError(from, pkt, sp, err)
			return
		}
		s.send(from, &wire.Packet{
			Header: wire.Header{Type: wire.TMedCloseReply, ReqID: pkt.ReqID, Handle: pkt.Handle},
		})
	case wire.TMedMirror:
		u, err := wire.ParseMedMirror(pkt.Payload)
		if err != nil {
			s.sendError(from, pkt, nil, err)
			return
		}
		err = med.ApplyMirror(mediator.MirrorUpdate{
			Op:   mediator.MirrorOp(u.Op),
			Rec:  fromWireRecord(&u.Rec),
			From: u.From,
		})
		if err != nil {
			s.sendError(from, pkt, nil, err)
			return
		}
		s.send(from, &wire.Packet{
			Header: wire.Header{Type: wire.TMedMirrorReply, ReqID: pkt.ReqID, Handle: pkt.Handle},
		})
	case wire.TMedInvalidate:
		req, err := wire.ParseMedCacheSync(pkt.Payload)
		if err != nil {
			s.sendError(from, pkt, nil, err)
			return
		}
		cached := make([]mediator.CachedObject, 0, len(req.Cached))
		for _, o := range req.Cached {
			cached = append(cached, mediator.CachedObject{Name: o.Name, Gen: o.Gen})
		}
		stale, err := med.CacheSync(req.Session, cached, req.Written)
		if err != nil {
			s.sendError(from, pkt, nil, err)
			return
		}
		var w wire.MedCacheSyncReply
		for _, o := range stale {
			w.Stale = append(w.Stale, wire.MedCachedObject{Name: o.Name, Gen: o.Gen})
		}
		if d := pkt.Deadline; d > 0 && time.Since(t0) > d {
			// The round is idempotent-enough to shed: an unanswered sync
			// leaves the client's written set declared again next round.
			s.ev.Note(evLateShed, -1, nil, "client budget %v elapsed during cache sync", d)
			return
		}
		s.send(from, &wire.Packet{
			Header:  wire.Header{Type: wire.TMedInvalidateReply, ReqID: pkt.ReqID, Handle: pkt.Handle},
			Payload: wire.AppendMedCacheSyncReply(nil, &w),
		})
	case wire.TMedStatus:
		st, err := med.Status()
		if err != nil {
			s.sendError(from, pkt, nil, err)
			return
		}
		w := toWireStatus(&st)
		s.send(from, &wire.Packet{
			Header:  wire.Header{Type: wire.TMedStatusReply, ReqID: pkt.ReqID},
			Payload: wire.AppendMedStatus(nil, &w),
		})
	case wire.TMedDrain:
		handed, err := med.Drain()
		if err != nil {
			s.sendError(from, pkt, nil, err)
			return
		}
		s.send(from, &wire.Packet{
			Header: wire.Header{Type: wire.TMedDrainReply, ReqID: pkt.ReqID, Length: uint32(handed)},
		})
	default:
		s.sendError(from, pkt, nil, fmt.Errorf("medrpc: unexpected %v on mediator port", pkt.Type))
	}
}

// cachedOpenReply returns the marshaled reply previously sent for this
// (source, ReqID), or nil on a first-seen request.
func (s *Server) cachedOpenReply(from string, reqID uint32) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openCache[replyKey{from, reqID}]
}

// cacheOpenReply remembers a successful open reply for retransmit
// replay, evicting the oldest entries past openCacheMax.
func (s *Server) cacheOpenReply(from string, reqID uint32, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.openCache == nil {
		s.openCache = make(map[replyKey][]byte)
	}
	k := replyKey{from, reqID}
	if _, ok := s.openCache[k]; !ok {
		s.openOrder = append(s.openOrder, k)
	}
	s.openCache[k] = buf
	for len(s.openOrder) > openCacheMax {
		delete(s.openCache, s.openOrder[0])
		s.openOrder = s.openOrder[1:]
	}
}

// toWireRecord flattens a session record for the wire, validating that
// every field fits its wire form — agent indices and the agent/addr
// counts travel as uint16 — and failing instead of silently truncating
// into a corrupt record.
func toWireRecord(r *mediator.SessionRecord) (wire.MedRecord, error) {
	if len(r.Plan.Agents) > 0xFFFF || len(r.Plan.Addrs) > 0xFFFF {
		return wire.MedRecord{}, fmt.Errorf("medrpc: session %d: plan with %d agents / %d addrs exceeds the wire's uint16 counts",
			r.ID, len(r.Plan.Agents), len(r.Plan.Addrs))
	}
	if r.Plan.ParityShards < 0 || r.Plan.ParityShards > 0xFFFF {
		return wire.MedRecord{}, fmt.Errorf("medrpc: session %d: parity shards %d not encodable as uint16",
			r.ID, r.Plan.ParityShards)
	}
	w := wire.MedRecord{
		ID:     r.ID,
		Key:    r.Key,
		Home:   r.Home,
		Unit:   r.Plan.Unit,
		Parity: r.Plan.Parity,
		Shards: uint16(r.Plan.ParityShards),
		Rate:   r.Plan.Rate,
		Addrs:  append([]string(nil), r.Plan.Addrs...),
	}
	if !r.Expires.IsZero() {
		w.Expires = r.Expires.UnixNano()
	}
	w.Agents = make([]uint16, len(r.Plan.Agents))
	for i, a := range r.Plan.Agents {
		if a < 0 || a > 0xFFFF {
			return wire.MedRecord{}, fmt.Errorf("medrpc: session %d: agent index %d not encodable as uint16", r.ID, a)
		}
		w.Agents[i] = uint16(a)
	}
	return w, nil
}

// fromWireRecord rebuilds a session record from its wire form.
func fromWireRecord(w *wire.MedRecord) mediator.SessionRecord {
	r := mediator.SessionRecord{
		ID:   w.ID,
		Key:  w.Key,
		Home: w.Home,
		Plan: mediator.Plan{
			SessionID:    w.ID,
			Unit:         w.Unit,
			Parity:       w.Parity,
			ParityShards: int(w.Shards),
			Rate:         w.Rate,
			Addrs:        append([]string(nil), w.Addrs...),
		},
	}
	if w.Expires != 0 {
		r.Expires = time.Unix(0, w.Expires)
	}
	r.Plan.Agents = make([]int, len(w.Agents))
	for i, a := range w.Agents {
		r.Plan.Agents[i] = int(a)
	}
	return r
}

// toWireStatus flattens a replica status for the wire.
func toWireStatus(st *mediator.ReplicaStatus) wire.MedStatus {
	w := wire.MedStatus{
		Name:          st.Name,
		Role:          st.Role,
		Sessions:      uint32(st.Sessions),
		HomeSessions:  uint32(st.HomeSessions),
		Failovers:     uint64(st.Failovers),
		Handoffs:      uint64(st.Handoffs),
		Expirations:   uint64(st.Expirations),
		AgentReserved: append([]float64(nil), st.AgentReserved...),
		NetReserved:   append([]float64(nil), st.NetReserved...),
	}
	if !st.LastHandoff.IsZero() {
		w.LastHandoff = st.LastHandoff.UnixNano()
	}
	return w
}

// fromWireStatus rebuilds a replica status from its wire form.
func fromWireStatus(w *wire.MedStatus) mediator.ReplicaStatus {
	st := mediator.ReplicaStatus{
		Name:          w.Name,
		Role:          w.Role,
		Sessions:      int(w.Sessions),
		HomeSessions:  int(w.HomeSessions),
		Failovers:     int64(w.Failovers),
		Handoffs:      int64(w.Handoffs),
		Expirations:   int64(w.Expirations),
		AgentReserved: append([]float64(nil), w.AgentReserved...),
		NetReserved:   append([]float64(nil), w.NetReserved...),
	}
	if w.LastHandoff != 0 {
		st.LastHandoff = time.Unix(0, w.LastHandoff)
	}
	return st
}
