// Package swift is a Go implementation of the Swift I/O architecture from
// Cabrera & Long, "Exploiting Multiple I/O Streams to Provide High
// Data-Rates" (USENIX 1991).
//
// Swift addresses data-rate mismatches between applications, storage
// devices, and the interconnect by striping objects over many (slow)
// storage agents and driving them in parallel, presenting the aggregate as
// one fast logical store with Unix file semantics. The package provides:
//
//   - the distribution agent (client library): Open/Create/Read/Write/
//     Seek/Close on striped objects over a light-weight datagram protocol;
//   - the storage agent server (StartAgent), deployable over real UDP or
//     the in-memory modeled network in internal/transport/memnet;
//   - computed-copy redundancy: rotating parity — single XOR or an m+k
//     Reed–Solomon scheme (internal/ec) — with degraded-mode operation
//     and fragment rebuild through up to k simultaneous failures;
//   - a storage mediator (internal/mediator) that reserves agent and
//     network capacity and picks striping parameters from a client's
//     data-rate requirement.
//
// # Quickstart
//
//	host := udpnet.NewHost("127.0.0.1")
//	// start three storage agents (normally separate machines)
//	for i := 0; i < 3; i++ {
//	    st := store.NewMem()
//	    a, _ := agent.New(host, st, agent.Config{Port: fmt.Sprint(7070+i)})
//	    defer a.Close()
//	}
//	fs, _ := swift.Dial(swift.Config{
//	    Host:   host,
//	    Agents: []string{"127.0.0.1:7070", "127.0.0.1:7071", "127.0.0.1:7072"},
//	})
//	f, _ := fs.Create("demo")
//	f.Write([]byte("striped across three servers"))
//	f.Close()
//
// See the examples directory for complete programs.
package swift

import (
	"swift/internal/agent"
	"swift/internal/cache"
	"swift/internal/core"
	"swift/internal/integrity"
	"swift/internal/mediator"
	"swift/internal/obs"
	"swift/internal/store"
	"swift/internal/transport"
)

// Config configures a Swift client (the distribution agent). It is the
// engine's own configuration; see core.Config for every field.
type Config = core.Config

// MonitorConfig tunes the background health monitor (Config.Monitor).
type MonitorConfig = core.MonitorConfig

// FS is a handle to a striped object store: the Swift distribution agent.
type FS struct {
	c *core.Client
}

// File is an open striped object with Unix file semantics: it implements
// io.Reader, io.Writer, io.Seeker, io.ReaderAt, io.WriterAt and io.Closer.
type File = core.File

// OpenFlags control FS.OpenFile.
type OpenFlags = core.OpenFlags

// Dial creates a Swift client for the given agent set.
func Dial(cfg Config) (*FS, error) {
	c, err := core.Dial(cfg)
	if err != nil {
		return nil, err
	}
	return &FS{c: c}, nil
}

// Open opens an existing object for reading and writing.
func (fs *FS) Open(name string) (*File, error) {
	return fs.c.Open(name, core.OpenFlags{})
}

// Create opens an object, creating it if absent and truncating it
// otherwise.
func (fs *FS) Create(name string) (*File, error) {
	return fs.c.Open(name, core.OpenFlags{Create: true, Truncate: true})
}

// OpenFile opens an object with explicit flags.
func (fs *FS) OpenFile(name string, flags OpenFlags) (*File, error) {
	return fs.c.Open(name, flags)
}

// Stat returns the logical size of the named object.
func (fs *FS) Stat(name string) (int64, error) { return fs.c.Stat(name) }

// Remove deletes the named object from all agents.
func (fs *FS) Remove(name string) error { return fs.c.Remove(name) }

// List returns the names of all objects, sorted.
func (fs *FS) List() ([]string, error) { return fs.c.List() }

// AgentStatus is one storage agent's health probe result.
type AgentStatus = core.AgentStatus

// Ping probes every agent and returns their statuses in agent order.
func (fs *FS) Ping() []AgentStatus { return fs.c.Ping() }

// MarkDown forces agent i failed (true) or restored (false). The
// failure-domain lifecycle normally manages agent states automatically
// (see Health); MarkDown remains for drills and administrative fencing.
func (fs *FS) MarkDown(i int, down bool) { fs.c.MarkDown(i, down) }

// Down reports whether agent i is in the down state.
func (fs *FS) Down(i int) bool { return fs.c.Down(i) }

// AgentState is one agent's position in the failure-domain lifecycle:
// healthy, suspect, or down.
type AgentState = core.AgentState

// Lifecycle states.
const (
	StateHealthy = core.StateHealthy
	StateSuspect = core.StateSuspect
	StateDown    = core.StateDown
)

// AgentHealth is one agent's lifecycle snapshot.
type AgentHealth = core.AgentHealth

// Health returns every agent's failure-domain lifecycle snapshot, in
// agent order, without touching the network.
func (fs *FS) Health() []AgentHealth { return fs.c.Health() }

// CheckHealth runs one synchronous health round — probing every agent,
// applying lifecycle transitions, and re-admitting recovered agents — and
// returns the resulting snapshot. The background monitor (see
// Config.Monitor) calls the same machinery on a timer.
func (fs *FS) CheckHealth() []AgentHealth { return fs.c.ProbeOnce() }

// ScrubOptions tune a scrub pass (see FS.ScrubObject and File.Scrub).
type ScrubOptions = core.ScrubOptions

// ScrubReport totals one scrub pass: rows verified, corruption and
// parity mismatches found, units repaired, and what could not be healed.
type ScrubReport = core.ScrubReport

// ScrubObject opens the named object, verifies it row by row against the
// integrity envelope and the parity equation, optionally repairs what it
// finds, and closes it again.
func (fs *FS) ScrubObject(name string, opts ScrubOptions) (ScrubReport, error) {
	return fs.c.ScrubObject(name, opts)
}

// ScrubAll scrubs every object on the agent set in turn.
func (fs *FS) ScrubAll(opts ScrubOptions) (ScrubReport, error) {
	return fs.c.ScrubAll(opts)
}

// ScrubOpen scrubs every currently open file once, repairing (when
// Parity is enabled) what it finds — the same pass the background
// scrubber (Config.Monitor.ScrubInterval) runs on its timer.
func (fs *FS) ScrubOpen() ScrubReport { return fs.c.ScrubOnce() }

// ErrCorrupt is the sentinel all at-rest corruption errors match with
// errors.Is: data failed its integrity checksum and was not served.
var ErrCorrupt = integrity.ErrCorrupt

// CorruptError reports the byte range of an object that failed its
// at-rest integrity check.
type CorruptError = integrity.CorruptError

// IsCorrupt reports whether err (possibly a RemoteError that crossed the
// wire) describes at-rest corruption.
func IsCorrupt(err error) bool { return integrity.IsCorrupt(err) }

// NewIntegrityStore wraps a store so every fragment is kept in a
// block-checksum envelope: writes are checksummed per block, reads are
// verified, and damaged ranges surface as CorruptError instead of bad
// bytes. blockSize 0 selects the default (4 KiB); it should divide the
// striping unit so parity repair can overwrite whole blocks.
func NewIntegrityStore(inner store.Store, blockSize int64) store.Store {
	return integrity.NewStore(inner, blockSize)
}

// Stats is the client's full telemetry snapshot: protocol counters,
// per-operation latency percentiles, and the per-agent breakdown.
type Stats = core.StatsSnapshot

// AgentStats is one agent's telemetry snapshot within Stats.
type AgentStats = core.AgentStats

// MetricsSnapshot is a value copy of the client's protocol counters.
type MetricsSnapshot = core.MetricsSnapshot

// CacheStats is the client block cache's counter snapshot within Stats:
// hits, misses, read-ahead activity, write-behind flushes and coherence
// invalidations. All zeros when the cache tier is disabled.
type CacheStats = cache.Stats

// CachedObject names one cached object together with the generation it
// was cached at — the currency of the cache-coherence protocol (see
// Config.CacheSync and MediatorBroker.CacheSync).
type CachedObject = mediator.CachedObject

// BreakerState is one agent circuit breaker's position: closed,
// half-open, or open.
type BreakerState = core.BreakerState

// Circuit breaker states.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

// Overload-control error sentinels, matched with errors.Is.
var (
	// ErrDeadline: the operation exceeded Config.OpTimeout.
	ErrDeadline = core.ErrDeadline
	// ErrRetryBudget: a retry or hedge was denied because the shared
	// retry budget is exhausted.
	ErrRetryBudget = core.ErrRetryBudget
	// ErrAgentBusy: an agent shed the request with pushback.
	ErrAgentBusy = core.ErrAgentBusy
	// ErrMediatorOverloaded: a mediator rejected a new session because
	// reserved capacity exceeded its admission watermark.
	ErrMediatorOverloaded = mediator.ErrOverloaded
)

// LatencySnapshot summarizes one latency histogram: count, mean, min,
// max and the p50/p90/p99 percentiles.
type LatencySnapshot = obs.Snapshot

// TraceEvent is one retained burst-level trace event.
type TraceEvent = obs.Event

// Stats snapshots the client's telemetry. Safe to call during live
// transfers; recording is never blocked.
func (fs *FS) Stats() Stats { return fs.c.Stats() }

// CacheStats returns the block cache's counters — Stats().Cache without
// the full snapshot cost. All zeros when the cache tier is disabled.
func (fs *FS) CacheStats() CacheStats { return fs.c.CacheStats() }

// CoherenceSync runs one synchronous cache-coherence round through
// Config.CacheSync: declare recent writes, learn which cached objects
// other clients have overwritten, and invalidate them. The health
// monitor (Config.Monitor) calls the same machinery every round;
// CoherenceSync is for tests and clients that need a bounded staleness
// point without waiting for the next round.
func (fs *FS) CoherenceSync() { fs.c.CoherenceSync() }

// Scheme describes the redundancy scheme as "m+k" (data+parity units per
// stripe row), or "none" when parity is disabled.
func (fs *FS) Scheme() string { return fs.c.Scheme() }

// LayoutInfo describes the striping layout: the unit size, the agent
// count, and the redundancy scheme split into data and parity units per
// stripe row.
type LayoutInfo struct {
	Unit         int64
	Agents       int
	DataShards   int
	ParityShards int
	Scheme       string // "m+k", or "none" without parity
}

// Layout reports the client's striping layout and redundancy scheme.
func (fs *FS) Layout() LayoutInfo {
	l := fs.c.Layout()
	return LayoutInfo{
		Unit:         l.Unit,
		Agents:       l.Agents,
		DataShards:   l.DataPerRow(),
		ParityShards: l.ParityPerRow(),
		Scheme:       fs.c.Scheme(),
	}
}

// TraceEvents returns up to n recent trace events, oldest first.
func (fs *FS) TraceEvents(n int) []TraceEvent { return fs.c.Trace().Last(n) }

// OpTrace is one kept per-operation span tree (see Config.TraceRate).
type OpTrace = obs.Trace

// SpanContext is a trace context minted at a client operation and
// propagated across the wire to agents and mediators.
type SpanContext = obs.SpanContext

// SpanRecord is one finished span within an OpTrace's tree.
type SpanRecord = obs.SpanRecord

// Tracer returns the client's span tracer, or nil when tracing is
// disabled (Config.TraceRate 0 and no Config.Tracer).
func (fs *FS) Tracer() *obs.Tracer { return fs.c.Tracer() }

// Traces returns the kept per-operation span trees, oldest first: ops
// head-sampled at Config.TraceRate plus every op the tail sampler kept
// for erroring, retrying, or running slower than its operation's p99.
func (fs *FS) Traces() []OpTrace { return fs.c.Tracer().Traces() }

// Obs returns the client's metric registry, for HTTP export or custom
// instrument registration.
func (fs *FS) Obs() *obs.Registry { return fs.c.Obs() }

// Close releases the client's network resources. Files opened from the
// FS must be closed separately.
func (fs *FS) Close() error { return fs.c.Close() }

// MediatorRequirements is what a client asks a mediator tier for when
// opening a session: required data-rate and redundancy scheme.
type MediatorRequirements = mediator.Requirements

// TransferPlan is an admitted session's transfer plan: agents, striping
// unit, and redundancy scheme.
type TransferPlan = mediator.Plan

// SessionRecord is the full state of an admitted mediator session — the
// plan plus its placement key, home replica and lease deadline. Clients
// keep it so a surviving replica can adopt the session after its home
// mediator dies.
type SessionRecord = mediator.SessionRecord

// ReplicaStatus is one mediator replica's operator-facing state.
type ReplicaStatus = mediator.ReplicaStatus

// MediatorConfig describes the installation a mediator tier administers:
// agent capacities, interconnects, lease policy.
type MediatorConfig = mediator.Config

// MediatorAgentInfo describes one storage agent's capacity to the
// mediator's admission model.
type MediatorAgentInfo = mediator.AgentInfo

// MediatorNetInfo describes one interconnect to the mediator's admission
// model.
type MediatorNetInfo = mediator.NetInfo

// MediatorFederation is an in-process tier of federated mediator
// replicas: the harness for simulations and single-process deployments.
// Distributed deployments run one replica per swiftd and federate over
// the wire instead.
type MediatorFederation = mediator.Federation

// NewMediatorFederation builds one mediator replica per name over the
// shared installation described by base and links them as peers with
// asynchronous session mirroring.
func NewMediatorFederation(names []string, base MediatorConfig) (*MediatorFederation, error) {
	return mediator.NewFederation(names, base)
}

// MediatorEndpoint is one mediator replica as seen by a client: either
// an in-process *mediator.Mediator or a medrpc wire stub.
type MediatorEndpoint = core.MediatorEndpoint

// BrokerConfig configures a MediatorBroker.
type BrokerConfig = core.BrokerConfig

// MediatorBroker is the client-side mediator failover layer: session
// open with replica rotation, lease heartbeats that transparently
// re-target across crashes and drains, and capped-backoff retries.
type MediatorBroker = core.MediatorBroker

// NewMediatorBroker builds the failover broker over a mediator replica
// set. Wire the returned broker's Heartbeat into Config.Monitor.Heartbeat
// so the health monitor renews the session lease while the client lives.
func NewMediatorBroker(cfg BrokerConfig) (*MediatorBroker, error) {
	return core.NewMediatorBroker(cfg)
}

// AgentConfig configures a storage agent server.
type AgentConfig = agent.Config

// Agent is a running storage agent server.
type Agent = agent.Agent

// StartAgent starts a storage agent serving st on the host's well-known
// port. It is the server-side entry point; cmd/swiftd wraps it.
func StartAgent(host transport.Host, st store.Store, cfg AgentConfig) (*Agent, error) {
	return agent.New(host, st, cfg)
}

// NewMemStore returns an in-memory object store for agents.
func NewMemStore() store.Store { return store.NewMem() }

// NewFileStore returns a directory-backed object store for agents.
func NewFileStore(dir string) (store.Store, error) { return store.NewFileStore(dir) }
