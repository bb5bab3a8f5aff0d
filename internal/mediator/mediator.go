// Package mediator implements the Swift storage mediator: the component
// that, per §2 of the paper, "reserves resources from all the necessary
// storage agents and from the communication subsystem in a session-
// oriented manner" and then hands the distribution agent a transfer plan.
//
// The mediator owns a capacity model of the installation — each storage
// agent's deliverable data-rate and each interconnect's capacity — and
// performs admission control: "resource preallocation implies that storage
// mediators will reject any request with requirements it is unable to
// satisfy." It also chooses the striping unit from the client's data-rate
// requirement: "if the required transfer rate is low, then the striping
// unit can be large and Swift can spread the data over only a few storage
// agents. If the required data-rate is high, then the striping unit will
// be chosen small enough to exploit all the parallelism needed."
package mediator

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"swift/internal/obs"
)

// Errors.
var (
	// ErrUnsatisfiable is returned when the installation cannot meet a
	// request's requirements; the mediator rejects rather than degrades.
	ErrUnsatisfiable = errors.New("mediator: requirements cannot be satisfied")
	// ErrUnknownSession is returned for operations on absent sessions
	// (never opened, already closed, or lease-expired).
	ErrUnknownSession = errors.New("mediator: unknown session")
	// ErrOverloaded is returned when admission control sheds a new session
	// because reserved ratios already exceed the configured watermark.
	// Unlike ErrUnsatisfiable it is transient: sessions close and leases
	// expire, so the client should pace and retry (see OverloadedError's
	// RetryAfter hint) rather than fail over to a peer replica.
	ErrOverloaded = errors.New("mediator: overloaded")
)

// OverloadedError carries the retry-after pacing hint with an
// ErrOverloaded rejection. It unwraps to ErrOverloaded, and its text
// embeds the hint in a parseable "retry after <duration>" suffix so the
// sentinel survives a trip through the medrpc wire as a remote error.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", ErrOverloaded, e.RetryAfter)
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// AgentInfo describes one storage agent's capacity.
type AgentInfo struct {
	Addr string  // well-known control address
	Rate float64 // sustainable data-rate in bytes/second
	Net  int     // index into Config.Nets of the segment it lives on
}

// NetInfo describes one interconnect.
type NetInfo struct {
	Name     string
	Capacity float64 // effective payload capacity in bytes/second
}

// Config is the installation the mediator administers.
type Config struct {
	Agents []AgentInfo
	Nets   []NetInfo
	// Self is this replica's name within a federated mediator tier.
	// Empty means an unfederated, single mediator (the pre-federation
	// behaviour). Federated replicas namespace their session ids with a
	// hash of Self so ids admitted on different replicas never collide,
	// and label their metrics with {replica="Self"}.
	Self string
	// MinUnit and MaxUnit bound the striping unit (defaults 4 KiB and
	// 256 KiB). Units are powers of two.
	MinUnit, MaxUnit int64
	// LeaseTTL bounds how long an admitted session may hold its
	// reservations without a RenewSession heartbeat from the distribution
	// agent. An expired lease releases the session's agent and network
	// reservations automatically — a crashed client cannot pin capacity
	// forever. Zero disables leases (sessions live until closed).
	LeaseTTL time.Duration
	// AdmitWatermark, when > 0, sheds new sessions once any agent's or
	// interconnect's reserved ratio reaches this fraction of its capacity
	// (e.g. 0.9): the mediator answers ErrOverloaded with a retry-after
	// hint instead of reserving the last slack, keeping headroom for
	// renewals and degraded-mode traffic. Zero disables the watermark
	// (admission rejects only on hard infeasibility, the pre-overload
	// behaviour).
	AdmitWatermark float64
	// Now is the lease clock (default time.Now). Tests inject a fake.
	Now func() time.Time
	// Obs, when non-nil, is the metric registry the mediator registers
	// its admission counters and reservation-utilization gauges in. Nil
	// gets a private registry; telemetry is always recorded.
	Obs *obs.Registry
}

// Requirements is what a client asks for when opening a session.
type Requirements struct {
	// Rate is the required data-rate in bytes/second. Zero requests
	// best effort and is admitted on a single agent with a large unit.
	Rate float64
	// Redundancy asks for computed-copy (parity) protection, which
	// costs ParityShards extra agents per stripe row.
	Redundancy bool
	// ParityShards is the number of parity units per stripe row (the k
	// of an m+k erasure scheme). Zero with Redundancy means one (the
	// single-XOR computed copy of the paper); values above one buy
	// tolerance of that many simultaneous agent failures at the cost of
	// as many extra agents. Setting it implies Redundancy.
	ParityShards int
	// Key is the client's placement key within a federated tier: it
	// decides which replica is the session's home and the failover order
	// (see PlaceOrder). Empty is allowed; drains then place by session id.
	Key string
}

// Plan is a transfer plan: everything the distribution agent needs to
// execute the session without further mediator involvement.
type Plan struct {
	SessionID    uint64
	Agents       []int    // selected agent indices, striping order
	Addrs        []string // their control addresses
	Unit         int64    // striping unit in bytes
	Parity       bool
	ParityShards int     // parity units per stripe row (0 without parity)
	Rate         float64 // granted (reserved) data-rate, bytes/second
}

// session is one admitted plan plus its lease and federation state.
type session struct {
	plan    *Plan
	expires time.Time // zero when leases are disabled
	key     string    // placement key (federation)
	home    string    // replica responsible for the lease
}

// Session-id namespacing for federated replicas: the top 16 bits hash the
// replica name, the low 48 carry the per-replica sequence.
const (
	idBaseMask = uint64(0xFFFF) << 48
	idSeqMask  = ^idBaseMask
)

// Mediator tracks reservations against the installation's capacities.
type Mediator struct {
	cfg    Config
	self   string // cfg.Self
	idBase uint64 // session-id namespace, 0 when unfederated

	tel *obs.Events

	mu          sync.Mutex
	agentLoad   []float64           // guarded by mu
	netLoad     []float64           // guarded by mu
	sessions    map[uint64]*session // guarded by mu
	objGen      map[string]uint64   // per-object cache write generation; guarded by mu
	nextID      uint64              // guarded by mu
	peers       []Peer
	links       []*peerLink // one replication queue+goroutine per peer
	draining    bool        // guarded by mu
	killed      bool        // guarded by mu
	lastHandoff time.Time   // guarded by mu

	janStop chan struct{}
	janDone chan struct{}
	mirStop chan struct{}
	mirWG   sync.WaitGroup
}

// New validates the installation description and returns a mediator.
func New(cfg Config) (*Mediator, error) {
	if len(cfg.Agents) == 0 {
		return nil, errors.New("mediator: no agents")
	}
	if len(cfg.Nets) == 0 {
		return nil, errors.New("mediator: no networks")
	}
	for i, a := range cfg.Agents {
		if a.Rate <= 0 {
			return nil, fmt.Errorf("mediator: agent %d has no capacity", i)
		}
		if a.Net < 0 || a.Net >= len(cfg.Nets) {
			return nil, fmt.Errorf("mediator: agent %d on unknown net %d", i, a.Net)
		}
	}
	if cfg.MinUnit == 0 {
		cfg.MinUnit = 4 * 1024
	}
	if cfg.MaxUnit == 0 {
		cfg.MaxUnit = 256 * 1024
	}
	if cfg.MinUnit > cfg.MaxUnit || cfg.MinUnit <= 0 {
		return nil, fmt.Errorf("mediator: bad unit bounds [%d,%d]", cfg.MinUnit, cfg.MaxUnit)
	}
	if cfg.LeaseTTL < 0 {
		return nil, fmt.Errorf("mediator: negative lease TTL %v", cfg.LeaseTTL)
	}
	if cfg.Now == nil {
		//lint:allow clockcheck Config.Now is the lease clock's injection seam; this is its production default
		cfg.Now = time.Now
	}
	m := &Mediator{
		cfg:       cfg,
		self:      cfg.Self,
		agentLoad: make([]float64, len(cfg.Agents)),
		netLoad:   make([]float64, len(cfg.Nets)),
		sessions:  make(map[uint64]*session),
	}
	if cfg.Self != "" {
		m.idBase = (placeScore("", cfg.Self) & 0xFFFF) << 48
		if m.idBase == 0 {
			m.idBase = 1 << 48 // keep federated ids out of the unfederated space
		}
	}
	m.initTelemetry(cfg.Obs)
	if cfg.LeaseTTL > 0 {
		m.startJanitor()
	}
	return m, nil
}

// startJanitor launches the background lease reaper. Expiry is also
// applied lazily on every mediator operation, so the janitor only bounds
// how long a dead client's reservations linger on an otherwise idle
// mediator. Stopped by Close.
func (m *Mediator) startJanitor() {
	interval := m.cfg.LeaseTTL / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.janStop, m.janDone = stop, done
	go func() {
		defer close(done)
		//lint:allow clockcheck the janitor ticker only bounds reap latency; lease expiry itself is judged with cfg.Now
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.ExpireNow()
			}
		}
	}()
}

// Close stops the lease janitor and the mirror fan-out loop, if running.
// The mediator's bookkeeping remains usable afterwards (expiry still
// applies lazily).
func (m *Mediator) Close() error {
	m.stopLoops()
	return nil
}

// stopLoops shuts the janitor and the per-peer mirror links down,
// idempotently.
func (m *Mediator) stopLoops() {
	m.mu.Lock()
	janStop, janDone := m.janStop, m.janDone
	m.janStop = nil
	mirStop := m.mirStop
	m.mirStop = nil
	m.mu.Unlock()
	if janStop != nil {
		close(janStop)
		<-janDone
	}
	if mirStop != nil {
		close(mirStop)
		m.mirWG.Wait()
	}
}

// ExpireNow sweeps expired leases, releasing their reservations, and
// returns how many sessions it reaped.
func (m *Mediator) ExpireNow() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.expireLocked()
}

// expireLocked releases every session whose lease has lapsed; m.mu held.
// A lease is valid through its deadline instant: a renew arriving at
// exactly expires must win over the reaper, so reaping requires
// now.After(expires), strictly. Each reaped session is taken out of the
// map before its reservations are released, so no concurrent path can
// observe (and double-release) a half-expired session.
func (m *Mediator) expireLocked() int {
	if m.cfg.LeaseTTL <= 0 || m.killed {
		return 0
	}
	now := m.cfg.Now()
	n := 0
	for id, s := range m.sessions {
		if !now.After(s.expires) {
			continue
		}
		delete(m.sessions, id)
		m.releaseLocked(s.plan)
		m.tel.Count(evExpiration, -1)
		n++
	}
	return n
}

// Admit admits or rejects a request, reserving agent and network
// capacity. It returns the full session record — transfer plan, home
// replica, placement key, lease deadline — that a client needs in order
// to fail over to a peer replica later, and queues the new session for
// mirroring to the peers. The span context is the caller's; an
// in-process call is already covered by the caller's span, so it is
// unused here (the medrpc stub carries it on the wire).
func (m *Mediator) Admit(req Requirements, _ obs.SpanContext) (*SessionRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return nil, ErrReplicaDown
	}
	if m.draining {
		m.tel.Count(evReject, -1)
		return nil, ErrDraining
	}
	m.expireLocked()
	if w := m.cfg.AdmitWatermark; w > 0 && m.maxReservedLocked() >= w {
		m.tel.Count(evOverloadReject, -1)
		return nil, &OverloadedError{RetryAfter: m.retryAfterLocked()}
	}
	p, err := m.admitLocked(req)
	if err != nil {
		return nil, err
	}
	rec := m.recordLocked(p.SessionID, m.sessions[p.SessionID])
	m.mirrorLocked(MirrorUpsert, rec)
	return &rec, nil
}

// maxReservedLocked returns the highest reserved ratio across all agents
// and interconnects; m.mu held.
func (m *Mediator) maxReservedLocked() float64 {
	var max float64
	for i, a := range m.cfg.Agents {
		if a.Rate > 0 {
			if r := m.agentLoad[i] / a.Rate; r > max {
				max = r
			}
		}
	}
	for j, n := range m.cfg.Nets {
		if n.Capacity > 0 {
			if r := m.netLoad[j] / n.Capacity; r > max {
				max = r
			}
		}
	}
	return max
}

// retryAfterLocked derives the overload retry-after hint: a quarter of
// the lease TTL (capacity frees as leases lapse and sessions close),
// floored at 50ms so lease-less installations still pace clients.
func (m *Mediator) retryAfterLocked() time.Duration {
	hint := m.cfg.LeaseTTL / 4
	if hint < 50*time.Millisecond {
		hint = 50 * time.Millisecond
	}
	return hint
}

// admitLocked runs admission control; m.mu held.
func (m *Mediator) admitLocked(req Requirements) (*Plan, error) {
	// Normalize the redundancy scheme: ParityShards implies Redundancy,
	// and plain Redundancy means the single computed copy.
	shards := req.ParityShards
	if shards < 0 {
		m.tel.Count(evReject, -1)
		return nil, fmt.Errorf("%w: negative parity shards %d", ErrUnsatisfiable, shards)
	}
	if shards > 0 {
		req.Redundancy = true
	}
	if req.Redundancy && shards == 0 {
		shards = 1
	}

	// Available capacity per agent, sorted descending; ties broken by
	// index for determinism.
	type avail struct {
		idx  int
		free float64
	}
	avails := make([]avail, 0, len(m.cfg.Agents))
	for i, a := range m.cfg.Agents {
		if free := a.Rate - m.agentLoad[i]; free > 0 {
			avails = append(avails, avail{i, free})
		}
	}
	sort.Slice(avails, func(i, j int) bool {
		if avails[i].free != avails[j].free {
			return avails[i].free > avails[j].free
		}
		return avails[i].idx < avails[j].idx
	})

	need := req.Rate
	minAgents := 1
	if req.Redundancy {
		// An m+k scheme needs at least two data units per row (one would
		// be replication, not striping) on top of the k parity units.
		minAgents = shards + 2
	}

	// Grow the agent set until the per-agent share fits in the least-
	// capable chosen agent and the per-net traffic fits in every net.
	for k := minAgents; k <= len(avails); k++ {
		chosen := avails[:k]
		dataAgents := k - shards
		if dataAgents < 1 {
			continue
		}
		// With rotating parity every agent carries ~ rate/dataAgents.
		perAgent := need / float64(dataAgents)
		if need == 0 {
			perAgent = 0
		}
		if perAgent > chosen[k-1].free {
			continue
		}
		// Network feasibility.
		netTraffic := make([]float64, len(m.cfg.Nets))
		for _, c := range chosen {
			netTraffic[m.cfg.Agents[c.idx].Net] += perAgent
		}
		ok := true
		for j, tr := range netTraffic {
			if m.netLoad[j]+tr > m.cfg.Nets[j].Capacity {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}

		// Admit: build the plan and reserve. Federated replicas namespace
		// the id so concurrently-admitting replicas never collide.
		m.nextID++
		id := m.nextID
		if m.idBase != 0 {
			id = m.idBase | (m.nextID & idSeqMask)
		}
		p := &Plan{
			SessionID:    id,
			Unit:         m.chooseUnit(k),
			Parity:       req.Redundancy,
			ParityShards: shards,
			Rate:         need,
		}
		for _, c := range chosen {
			p.Agents = append(p.Agents, c.idx)
			p.Addrs = append(p.Addrs, m.cfg.Agents[c.idx].Addr)
			m.agentLoad[c.idx] += perAgent
			m.netLoad[m.cfg.Agents[c.idx].Net] += perAgent
		}
		sort.Ints(p.Agents) // deterministic striping order
		p.Addrs = p.Addrs[:0]
		for _, i := range p.Agents {
			p.Addrs = append(p.Addrs, m.cfg.Agents[i].Addr)
		}
		s := &session{plan: p, key: req.Key, home: m.selfName()}
		if m.cfg.LeaseTTL > 0 {
			s.expires = m.cfg.Now().Add(m.cfg.LeaseTTL)
		}
		m.sessions[p.SessionID] = s
		m.tel.Count(evAdmit, -1)
		return p, nil
	}
	m.tel.Count(evReject, -1)
	return nil, fmt.Errorf("%w: rate %.0f B/s (redundancy=%v parity_shards=%d)",
		ErrUnsatisfiable, req.Rate, req.Redundancy, shards)
}

// chooseUnit picks the striping unit for a k-agent session: the largest
// power of two not above MaxUnit/k, floored at MinUnit — large units for
// low-parallelism sessions, small units for high-parallelism ones.
func (m *Mediator) chooseUnit(k int) int64 {
	u := m.cfg.MaxUnit
	for u > m.cfg.MinUnit && u*int64(k) > m.cfg.MaxUnit {
		u /= 2
	}
	if u < m.cfg.MinUnit {
		u = m.cfg.MinUnit
	}
	return u
}

// CloseSession releases a session's reservations. It is idempotent:
// closing a session that is already closed (or was reaped by lease
// expiry) is a no-op, so release paths can be retried safely and a
// heartbeat racing a close cannot double-release capacity.
func (m *Mediator) CloseSession(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return ErrReplicaDown
	}
	m.expireLocked()
	s := m.sessions[id]
	if s == nil {
		return nil // idempotent: nothing to release
	}
	// Out of the map first, then release: a racing janitor pass or renew
	// can no longer find the session, so capacity cannot double-release.
	rec := m.recordLocked(id, s)
	delete(m.sessions, id)
	m.releaseLocked(s.plan)
	m.tel.Count(evClose, -1)
	m.mirrorLocked(MirrorDelete, rec)
	return nil
}

// releaseLocked returns a plan's reservations to the capacity model;
// m.mu must be held. Out-of-range agent indices are skipped, mirroring
// reserveLocked's guard: a mirrored or client-carried record from a
// differently-sized installation inserts without reserving those
// entries, so it must also release without touching them — anything
// else panics the replica when the foreign record expires or closes.
func (m *Mediator) releaseLocked(p *Plan) {
	dataAgents := len(p.Agents) - p.ParityShards
	if dataAgents < 1 {
		dataAgents = 1
	}
	perAgent := p.Rate / float64(dataAgents)
	for _, i := range p.Agents {
		if i < 0 || i >= len(m.agentLoad) {
			continue // foreign record from a differently-sized installation
		}
		m.agentLoad[i] -= perAgent
		if m.agentLoad[i] < 0 {
			m.agentLoad[i] = 0
		}
		j := m.cfg.Agents[i].Net
		m.netLoad[j] -= perAgent
		if m.netLoad[j] < 0 {
			m.netLoad[j] = 0
		}
	}
}

// Sessions reports the number of active (unexpired) sessions.
func (m *Mediator) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	return len(m.sessions)
}

// AgentLoad returns the reserved data-rate on agent i.
func (m *Mediator) AgentLoad(i int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	return m.agentLoad[i]
}

// NetLoad returns the reserved data-rate on net j.
func (m *Mediator) NetLoad(j int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	return m.netLoad[j]
}
