package mediator

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/obs"
)

// Federation: a tier of mediator replicas with replicated session state.
//
// Each replica runs the same admission logic over the same installation
// description. A session admitted anywhere is asynchronously mirrored to
// every peer (session id, placement key, home replica, plan, lease
// deadline), so any surviving replica can renew, close, or adopt the
// session when its home crashes or drains. Reservation accounting is
// replicated with the sessions: applying a mirrored upsert reserves the
// plan's capacity locally, applying a delete releases it, which keeps
// AgentLoad/NetLoad convergent across replicas without a consensus round.
//
// Nothing here is durable: the tier survives any minority of replica
// crashes because the survivors hold mirrors, but state lives only in
// memory. A full-tier restart loses all sessions — clients re-open, which
// is the paper's session model anyway (leases already bound how long a
// dead client pins capacity; federation bounds how long a dead *mediator*
// strands a live client).

// Federation errors.
var (
	// ErrReplicaDown is returned by every operation on a killed replica —
	// the in-process stand-in for a crashed mediator host.
	ErrReplicaDown = errors.New("mediator: replica down")
	// ErrDraining is returned to new admissions (and adoption attempts)
	// on a draining replica; live sessions continue to renew.
	ErrDraining = errors.New("mediator: replica draining")
)

// SessionRecord is the replicated form of one session: everything a peer
// needs to admit renewals for it, release it, or adopt it outright.
type SessionRecord struct {
	ID      uint64
	Key     string // placement key (client-chosen; "" falls back to the id)
	Home    string // replica currently responsible for the lease
	Expires time.Time
	Plan    Plan
}

// MirrorOp discriminates replication updates.
type MirrorOp uint8

const (
	// MirrorUpsert installs or refreshes a session record.
	MirrorUpsert MirrorOp = iota + 1
	// MirrorDelete removes a session and releases its reservations.
	MirrorDelete
	// MirrorInvalidate propagates a cache write-generation bump: Rec.Key
	// carries the object name and Rec.ID the new generation (no session
	// involved). Peers max-merge it so readers homed anywhere observe a
	// write declared on any replica.
	MirrorInvalidate
)

func (op MirrorOp) String() string {
	switch op {
	case MirrorUpsert:
		return "upsert"
	case MirrorDelete:
		return "delete"
	case MirrorInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("mirrorop(%d)", uint8(op))
	}
}

// MirrorUpdate is one replication message between replicas.
type MirrorUpdate struct {
	Op   MirrorOp
	Rec  SessionRecord
	From string // originating replica, informational
}

// Peer is a mediator replica as seen by another replica: the transport
// seam. In-process federations wire replicas directly (Federation); over
// the network, medrpc implements Peer with TMedMirror packets.
type Peer interface {
	Name() string
	Mirror(u MirrorUpdate) error
}

// mirrorMsg is a peer-queue entry: an update to deliver, or a flush
// barrier (done != nil) that WaitMirrors uses to wait for everything
// queued before it.
type mirrorMsg struct {
	u    MirrorUpdate
	done chan struct{}
}

// peerLink is one peer's private replication stream: its own bounded
// queue, drain goroutine, and parked-delete set. Per-peer isolation is
// the point — a dead or partitioned peer times out on its own queue
// only, so live peers keep receiving mirrors promptly. (A shared
// fan-out loop would let one dead peer backlog every update; a session
// close's delete then reaches the live peers later than a lease TTL
// after the last renewal's upsert, and they reap the mirrored session
// as expired before the delete lands.)
type peerLink struct {
	peer  Peer
	queue chan mirrorMsg
	down  atomic.Bool // the latest delivery to this peer failed

	mu      sync.Mutex
	pending map[uint64]MirrorUpdate // deletes awaiting delivery to this peer
}

// park records a MirrorDelete this peer refused (or that overflowed its
// queue), keyed by session id. The link loop retries parked deletes on
// every subsequent activity (including the WaitMirrors flush barrier):
// a dropped upsert is repaired by the next renewal's mirror, but a
// closed session never renews, so a lost delete would leave the peer a
// phantom reservation — forever, when leases are disabled.
func (l *peerLink) park(u MirrorUpdate) {
	l.mu.Lock()
	if l.pending == nil {
		l.pending = make(map[uint64]MirrorUpdate)
	}
	l.pending[u.Rec.ID] = u
	l.mu.Unlock()
}

// takePending drains the parked-delete set for a retry round.
func (l *peerLink) takePending() map[uint64]MirrorUpdate {
	l.mu.Lock()
	pending := l.pending
	l.pending = nil
	l.mu.Unlock()
	return pending
}

// SetPeers installs the replica's peer set and starts one asynchronous
// mirror link per peer. Call once, after New and before traffic; the
// links stop on Close or Kill.
func (m *Mediator) SetPeers(peers []Peer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers = append([]Peer(nil), peers...)
	if m.links == nil && len(m.peers) > 0 && !m.killed {
		m.mirStop = make(chan struct{})
		for _, p := range m.peers {
			l := &peerLink{peer: p, queue: make(chan mirrorMsg, 4096)}
			m.links = append(m.links, l)
			m.mirWG.Add(1)
			go m.linkLoop(l, m.mirStop)
		}
	}
}

// linkLoop delivers one peer's queued updates in order until stopped.
// It is channel-driven — no clock reads — so the clockcheck and goexit
// analyzers both hold over it. Before handling each message (flush
// barriers included) it retries the peer's parked deletes.
func (m *Mediator) linkLoop(l *peerLink, stop <-chan struct{}) {
	defer m.mirWG.Done()
	for {
		select {
		case <-stop:
			return
		case msg := <-l.queue:
			// Retry parked deletes first. Deletes are idempotent —
			// removing an unknown session is a no-op — so a peer that
			// already applied one tolerates the repeat.
			for _, u := range l.takePending() {
				if !m.deliver(l, u) {
					l.park(u)
				}
			}
			if msg.done != nil {
				close(msg.done)
				continue
			}
			if !m.deliver(l, msg.u) && msg.u.Op == MirrorDelete {
				l.park(msg.u)
			}
		}
	}
}

// mirrorLocked queues a replication update on every peer link; m.mu
// held. The enqueue never blocks: a full queue drops the update
// (counted), except deletes, which are parked for the link to retry —
// they have no renewal to repair them.
func (m *Mediator) mirrorLocked(op MirrorOp, rec SessionRecord) {
	u := MirrorUpdate{Op: op, Rec: rec, From: m.self}
	for _, l := range m.links {
		m.enqueue(l, u)
	}
}

// enqueue queues one update on a peer link without blocking (see
// mirrorLocked).
func (m *Mediator) enqueue(l *peerLink, u MirrorUpdate) {
	select {
	case l.queue <- mirrorMsg{u: u}:
	default:
		m.tel.Count(evMirrorDrop, -1)
		if u.Op == MirrorDelete {
			l.park(u)
		}
	}
}

// deliver offers one update to a link's peer, counting the outcome and
// recording whether the peer answered.
func (m *Mediator) deliver(l *peerLink, u MirrorUpdate) bool {
	if err := l.peer.Mirror(u); err != nil {
		m.tel.Count(evMirrorDrop, -1)
		l.down.Store(true)
		return false
	}
	m.tel.Count(evMirrorSent, -1)
	l.down.Store(false)
	return true
}

// WaitMirrors blocks until every update queued before the call has been
// offered to its peer, on every link. Tests use it as a determinism
// barrier.
func (m *Mediator) WaitMirrors() {
	m.mu.Lock()
	links := append([]*peerLink(nil), m.links...)
	stop := m.mirStop
	killed := m.killed
	m.mu.Unlock()
	if len(links) == 0 || stop == nil || killed {
		return
	}
	flushed := make([]chan struct{}, 0, len(links))
	for _, l := range links {
		done := make(chan struct{})
		select {
		case l.queue <- mirrorMsg{done: done}:
			flushed = append(flushed, done)
		case <-stop:
			return
		}
	}
	for _, done := range flushed {
		select {
		case <-done:
		case <-stop:
			return
		}
	}
}

// ApplyMirror applies one replication update from a peer. Upserts are
// last-writer-wins by lease deadline; inserting a previously unseen
// session reserves its plan's capacity so accounting tracks the sessions.
// Applied updates are never re-mirrored (no echo storms).
func (m *Mediator) ApplyMirror(u MirrorUpdate) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return ErrReplicaDown
	}
	switch u.Op {
	case MirrorUpsert:
		rec := u.Rec
		if s := m.sessions[rec.ID]; s != nil {
			if !rec.Expires.Before(s.expires) {
				s.expires = rec.Expires
				s.home = rec.Home
			}
		} else {
			m.insertRecordLocked(rec)
		}
		m.tel.Count(evMirrorApplied, -1)
	case MirrorDelete:
		if s := m.sessions[u.Rec.ID]; s != nil {
			// Out of the map before releasing, same as CloseSession.
			delete(m.sessions, u.Rec.ID)
			m.releaseLocked(s.plan)
		}
		m.tel.Count(evMirrorApplied, -1)
	case MirrorInvalidate:
		m.applyInvalidateLocked(u.Rec.Key, u.Rec.ID)
		m.tel.Count(evMirrorApplied, -1)
	default:
		return fmt.Errorf("mediator: unknown mirror op %v", u.Op)
	}
	return nil
}

// insertRecordLocked installs a mirrored or adopted record and reserves
// its capacity; m.mu held. It also advances nextID past any session this
// replica itself issued in a previous life, so a restarted replica never
// re-issues a live id.
func (m *Mediator) insertRecordLocked(rec SessionRecord) *session {
	p := rec.Plan
	p.Agents = append([]int(nil), rec.Plan.Agents...)
	p.Addrs = append([]string(nil), rec.Plan.Addrs...)
	s := &session{plan: &p, expires: rec.Expires, key: rec.Key, home: rec.Home}
	m.sessions[rec.ID] = s
	m.reserveLocked(s.plan)
	if m.idBase != 0 && rec.ID&idBaseMask == m.idBase {
		if seq := rec.ID & idSeqMask; seq > m.nextID {
			m.nextID = seq
		}
	}
	return s
}

// reserveLocked books a plan's capacity, the inverse of releaseLocked;
// m.mu held. Mirrored reservations may transiently exceed an agent's
// capacity during re-homing churn; the loads are accounting, not limits,
// and admission simply sees no free capacity until the churn settles.
func (m *Mediator) reserveLocked(p *Plan) {
	dataAgents := len(p.Agents) - p.ParityShards
	if dataAgents < 1 {
		dataAgents = 1
	}
	perAgent := p.Rate / float64(dataAgents)
	for _, i := range p.Agents {
		if i < 0 || i >= len(m.agentLoad) {
			continue // foreign record from a differently-sized installation
		}
		m.agentLoad[i] += perAgent
		m.netLoad[m.cfg.Agents[i].Net] += perAgent
	}
}

// RenewSession is the federated heartbeat: renew-or-adopt. If the session
// is known it extends the lease; if this replica is not its home, the
// client has re-targeted after a failure, so the replica adopts the
// session (takes over as home). If the session is entirely unknown — its
// home died before the first mirror arrived — the record the client
// carries is adopted wholesale, reservations and all. The returned home
// name tells the client which replica to heartbeat next (a draining home
// answers with the peer it handed the session to, re-targeting the client
// transparently). A renewal after the lease lapsed re-adopts the session
// the same way. Like Admit, it leaves the caller's span context to the
// caller's own span.
func (m *Mediator) RenewSession(rec SessionRecord, _ obs.SpanContext) (home string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return "", ErrReplicaDown
	}
	m.expireLocked()
	s := m.sessions[rec.ID]
	if s == nil {
		if m.draining {
			return "", ErrDraining
		}
		if m.cfg.LeaseTTL > 0 {
			rec.Expires = m.cfg.Now().Add(m.cfg.LeaseTTL)
		}
		rec.Home = m.selfName()
		s = m.insertRecordLocked(rec)
		m.tel.Count(evFailover, -1)
		m.mirrorLocked(MirrorUpsert, m.recordLocked(rec.ID, s))
		return s.home, nil
	}
	renewed := evRenewal
	if s.home != m.selfName() && !m.draining {
		// The client re-targeted here while the record says another
		// replica is home: that home is gone as far as the client is
		// concerned. Adopt.
		s.home = m.selfName()
		renewed = evFailover
	}
	if m.cfg.LeaseTTL > 0 {
		s.expires = m.cfg.Now().Add(m.cfg.LeaseTTL)
	}
	m.tel.Count(renewed, -1)
	if s.home == m.selfName() || m.draining {
		m.mirrorLocked(MirrorUpsert, m.recordLocked(rec.ID, s))
	}
	return s.home, nil
}

// Drain stops admitting new sessions and synchronously hands every
// session this replica is home for to a live peer (rendezvous-next for
// the session's key), so the replica can shut down with zero leases
// lapsing. Renewals keep succeeding throughout — a heartbeat that lands
// mid-drain is honoured and answered with the session's new home, which
// re-targets the client. Returns the number of sessions handed off.
func (m *Mediator) Drain() (int, error) {
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return 0, ErrReplicaDown
	}
	m.expireLocked()
	m.draining = true
	self := m.selfName()
	var recs []SessionRecord
	for id, s := range m.sessions {
		if s.home == self {
			recs = append(recs, m.recordLocked(id, s))
		}
	}
	peers := append([]Peer(nil), m.peers...)
	m.mu.Unlock()

	if len(recs) == 0 {
		return 0, nil
	}
	if len(peers) == 0 {
		return 0, fmt.Errorf("mediator: drain: %d live sessions but no peers to hand them to", len(recs))
	}
	peerByName := make(map[string]Peer, len(peers))
	names := make([]string, 0, len(peers))
	for _, p := range peers {
		peerByName[p.Name()] = p
		names = append(names, p.Name())
	}

	handed, want := 0, len(recs)
	var firstErr error
	for _, rec := range recs {
		key := rec.Key
		if key == "" {
			key = fmt.Sprintf("%d", rec.ID)
		}
		sent, gone := false, false
		for _, name := range PlaceOrder(key, names) {
			// Re-snapshot under the lock immediately before each handoff:
			// a renewal that landed since the drain snapshot carries a newer
			// deadline with Home=self, and a handoff built from the stale
			// snapshot would lose last-writer-wins at the peer, leaving the
			// draining replica recorded as home.
			m.mu.Lock()
			s := m.sessions[rec.ID]
			if s == nil {
				gone = true // closed or expired mid-drain; nothing to hand off
				m.mu.Unlock()
				break
			}
			rec = m.recordLocked(rec.ID, s)
			m.mu.Unlock()
			rec.Home = name
			if err := peerByName[name].Mirror(MirrorUpdate{Op: MirrorUpsert, Rec: rec, From: self}); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("mediator: drain: handoff of session %d to %s: %w", rec.ID, name, err)
				}
				continue
			}
			m.mu.Lock()
			if s := m.sessions[rec.ID]; s != nil {
				s.home = name
			}
			m.lastHandoff = m.cfg.Now()
			m.mirrorLocked(MirrorUpsert, rec) // tell the other peers about the new home
			m.mu.Unlock()
			m.tel.Count(evHandoff, -1)
			handed++
			sent = true
			break
		}
		if gone {
			want--
			continue
		}
		if !sent && firstErr == nil {
			firstErr = fmt.Errorf("mediator: drain: no peer accepted session %d", rec.ID)
		}
	}
	if handed < want {
		return handed, fmt.Errorf("mediator: drain: handed off %d of %d sessions: %w", handed, want, firstErr)
	}
	return handed, nil
}

// Kill simulates a replica crash for tests and drills: every subsequent
// operation returns ErrReplicaDown and the janitor and mirror loops stop.
// State is frozen, not released — exactly what a crashed process's memory
// does.
func (m *Mediator) Kill() {
	m.mu.Lock()
	m.killed = true
	m.mu.Unlock()
	m.stopLoops()
}

// Snapshot returns every live session as a record, for peer
// reconciliation after a replica restart.
func (m *Mediator) Snapshot() ([]SessionRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return nil, ErrReplicaDown
	}
	m.expireLocked()
	out := make([]SessionRecord, 0, len(m.sessions))
	for id, s := range m.sessions {
		out = append(out, m.recordLocked(id, s))
	}
	return out, nil
}

// SyncFrom installs a snapshot of session records — the restart
// reconciliation path. Records already known locally follow the usual
// last-writer-wins rule.
func (m *Mediator) SyncFrom(recs []SessionRecord) error {
	for _, rec := range recs {
		if err := m.ApplyMirror(MirrorUpdate{Op: MirrorUpsert, Rec: rec}); err != nil {
			return err
		}
	}
	return nil
}

// ReplicaStatus is one replica's operator-facing state.
type ReplicaStatus struct {
	Name          string
	Role          string    // "active" or "draining"
	Sessions      int       // sessions known (home + mirrored)
	HomeSessions  int       // sessions this replica is home for
	AgentReserved []float64 // per-agent reserved fraction of deliverable rate
	NetReserved   []float64 // per-net reserved fraction of capacity
	LastHandoff   time.Time // zero if this replica never handed a session off
	Failovers     int64     // sessions adopted from a failed peer
	Handoffs      int64     // sessions handed to peers by Drain
	Expirations   int64     // leases this replica reaped
}

// Status reports the replica's role, session counts, reservation ratios
// and failover/handoff counters.
func (m *Mediator) Status() (ReplicaStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return ReplicaStatus{}, ErrReplicaDown
	}
	m.expireLocked()
	st := ReplicaStatus{
		Name:        m.selfName(),
		Role:        "active",
		Sessions:    len(m.sessions),
		LastHandoff: m.lastHandoff,
		Failovers:   m.tel.Load(evFailover, -1),
		Handoffs:    m.tel.Load(evHandoff, -1),
		Expirations: m.tel.Load(evExpiration, -1),
	}
	if m.draining {
		st.Role = "draining"
	}
	for _, s := range m.sessions {
		if s.home == m.selfName() {
			st.HomeSessions++
		}
	}
	st.AgentReserved = make([]float64, len(m.agentLoad))
	for i, l := range m.agentLoad {
		if c := m.cfg.Agents[i].Rate; c > 0 {
			st.AgentReserved[i] = l / c
		}
	}
	st.NetReserved = make([]float64, len(m.netLoad))
	for j, l := range m.netLoad {
		if c := m.cfg.Nets[j].Capacity; c > 0 {
			st.NetReserved[j] = l / c
		}
	}
	return st, nil
}

// Name returns the replica's name ("mediator" when unfederated), so a
// *Mediator satisfies the client-side endpoint interface directly.
func (m *Mediator) Name() string { return m.selfName() }

// recordLocked snapshots one session as a replication record; m.mu held.
func (m *Mediator) recordLocked(id uint64, s *session) SessionRecord {
	return SessionRecord{ID: id, Key: s.key, Home: s.home, Expires: s.expires, Plan: *s.plan}
}

func (m *Mediator) selfName() string {
	if m.self == "" {
		return "mediator"
	}
	return m.self
}

// Federation wires N in-process replicas of one installation into a tier:
// the test and simulation harness for federated operation (deployments
// run one replica per swiftd and federate over medrpc instead). Peer
// links resolve through the Federation at call time, so a replica
// restarted with Restart is immediately reachable by its peers.
type Federation struct {
	mu    sync.Mutex
	names []string
	meds  []*Mediator
	mk    func(name string) (*Mediator, error)
}

// NewFederation builds one replica per name over the shared installation
// described by base (base.Self is overwritten per replica) and links them
// as peers.
func NewFederation(names []string, base Config) (*Federation, error) {
	if len(names) == 0 {
		return nil, errors.New("mediator: federation needs at least one replica")
	}
	f := &Federation{names: append([]string(nil), names...)}
	f.mk = func(name string) (*Mediator, error) {
		c := base
		c.Self = name
		return New(c)
	}
	for _, name := range f.names {
		med, err := f.mk(name)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("mediator: federation replica %q: %w", name, err)
		}
		f.meds = append(f.meds, med)
	}
	for i, med := range f.meds {
		var peers []Peer
		for j := range f.meds {
			if j != i {
				peers = append(peers, fedPeer{f: f, idx: j})
			}
		}
		med.SetPeers(peers)
	}
	return f, nil
}

// fedPeer routes Peer calls through the federation so they always reach
// the replica currently installed under that index.
type fedPeer struct {
	f   *Federation
	idx int
}

func (p fedPeer) Name() string { return p.f.names[p.idx] }

func (p fedPeer) Mirror(u MirrorUpdate) error {
	return p.f.Mediator(p.idx).ApplyMirror(u)
}

// Names returns the replica names in index order.
func (f *Federation) Names() []string { return append([]string(nil), f.names...) }

// Mediator returns replica i (killed replicas answer ErrReplicaDown on
// every operation until restarted).
func (f *Federation) Mediator(i int) *Mediator {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meds[i]
}

// Mediators snapshots all replicas in index order.
func (f *Federation) Mediators() []*Mediator {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Mediator(nil), f.meds...)
}

// Kill crashes replica i in place.
func (f *Federation) Kill(i int) {
	f.Mediator(i).Kill()
}

// Drain drains replica i, handing its home sessions to live peers.
func (f *Federation) Drain(i int) (int, error) {
	return f.Mediator(i).Drain()
}

// Restart replaces a killed replica with a fresh one and reconciles its
// session state from the first live peer's snapshot. Peer links of the
// other replicas resolve through the federation, so they pick up the new
// instance automatically.
func (f *Federation) Restart(i int) error {
	fresh, err := f.mk(f.names[i])
	if err != nil {
		return fmt.Errorf("mediator: restart %q: %w", f.names[i], err)
	}
	var peers []Peer
	for j := range f.names {
		if j != i {
			peers = append(peers, fedPeer{f: f, idx: j})
		}
	}
	fresh.SetPeers(peers)
	f.mu.Lock()
	old := f.meds[i]
	f.meds[i] = fresh
	meds := append([]*Mediator(nil), f.meds...)
	f.mu.Unlock()
	_ = old.Close()
	for j, med := range meds {
		if j == i {
			continue
		}
		recs, err := med.Snapshot()
		if err != nil {
			continue // dead peer; try the next
		}
		if err := fresh.SyncFrom(recs); err != nil {
			return fmt.Errorf("mediator: restart %q: sync from %q: %w", f.names[i], f.names[j], err)
		}
		// Object write generations reconcile alongside the sessions: a
		// restarted replica that forgot a generation would tell a cached
		// reader its stale image is fresh.
		if gens, err := med.GenSnapshot(); err == nil {
			_ = fresh.SyncGens(gens)
		}
		return nil
	}
	return nil // no live peer to reconcile from; start empty
}

// WaitMirrors flushes every live replica's mirror outbox — a test
// barrier making asynchronous replication deterministic.
func (f *Federation) WaitMirrors() {
	for _, med := range f.Mediators() {
		med.WaitMirrors()
	}
}

// Close shuts every replica down.
func (f *Federation) Close() error {
	for _, med := range f.Mediators() {
		if med != nil {
			_ = med.Close()
		}
	}
	return nil
}
