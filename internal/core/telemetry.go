package core

import (
	"strconv"
	"time"

	"swift/internal/cache"
	"swift/internal/ec"
	"swift/internal/obs"
)

// telemetry is the client's observability surface: per-operation latency
// histograms, per-agent burst latency, and the client's events — every
// incident is reported by one call (Count or Note, from obs.Events), and
// its counters, trace ring entry, span note and log line all come from
// the event table. Everything recorded on the data path is an atomic add
// into pre-resolved instruments; registration happens once in Dial.
type telemetry struct {
	*obs.Events // one slot per agent

	// Per-operation latency (whole client calls).
	openLat  *obs.Histogram
	readLat  *obs.Histogram
	writeLat *obs.Histogram
	probeLat *obs.Histogram

	openFiles *obs.Gauge

	// Erasure-codec latency (row encode on the write path, row
	// reconstruct on degraded reads, repair, rebuild and scrub).
	ecEncodeLat      *obs.Histogram
	ecReconstructLat *obs.Histogram

	agents []agentTelemetry
}

// agentTelemetry is one storage agent's session and burst-latency
// instruments; its events are counted in telemetry's per-agent slots.
type agentTelemetry struct {
	state       *obs.Gauge        // current AgentState, set at each transition
	packetBytes *obs.Gauge        // data-packet size the latest session agreed at open
	burstLat    [2]*obs.Histogram // burst completion latency, by direction
}

// clientEvents is the client's event table; statFields maps its exported
// kinds onto MetricsSnapshot and AgentStats. A direction's kinds are
// indexed by it. Give-ups count as timeouts, write pushbacks as pushbacks.
var (
	clientEvents obs.EventTable
	statFields   []statField

	evBurst = [2]*obs.EventKind{
		clientKind(obs.EventKind{Series: "swift_client_read_bursts_total", Help: "Read burst requests issued.",
			AgentSeries: "swift_client_agent_read_bursts_total", AgentHelp: "Read bursts issued to this agent."},
			func(s *MetricsSnapshot) *int64 { return &s.ReadBursts }, func(a *AgentStats) *int64 { return &a.ReadBursts }),
		clientKind(obs.EventKind{Series: "swift_client_write_bursts_total", Help: "Write bursts issued.",
			AgentSeries: "swift_client_agent_write_bursts_total", AgentHelp: "Write bursts issued to this agent."},
			func(s *MetricsSnapshot) *int64 { return &s.WriteBursts }, func(a *AgentStats) *int64 { return &a.WriteBursts }),
	}
	evTimeout = [2]*obs.EventKind{
		clientKind(obs.EventKind{Trace: "read_timeout", Retry: true, Series: "swift_client_read_timeouts_total", Help: "Read bursts that needed resubmission.",
			AgentSeries: "swift_client_agent_read_timeouts_total", AgentHelp: "Read burst timeouts on this agent."},
			func(s *MetricsSnapshot) *int64 { return &s.ReadTimeouts }, func(a *AgentStats) *int64 { return &a.ReadTimeouts }),
		clientKind(obs.EventKind{Trace: "write_timeout", Retry: true, Series: "swift_client_write_timeouts_total", Help: "Write bursts re-announced after silence.",
			AgentSeries: "swift_client_agent_write_timeouts_total", AgentHelp: "Write burst timeouts on this agent."},
			func(s *MetricsSnapshot) *int64 { return &s.WriteTimeouts }, func(a *AgentStats) *int64 { return &a.WriteTimeouts }),
	}
	evGiveUp = [2]*obs.EventKind{
		clientEvents.Kind(obs.EventKind{Trace: "read_giveup", Also: evTimeout[reading], Retry: true}),
		clientEvents.Kind(obs.EventKind{Trace: "write_giveup", Also: evTimeout[writing], Retry: true}),
	}
	evReadPushback = clientKind(obs.EventKind{Trace: "read_pushback", Retry: true, Series: "swift_client_pushbacks_total", Help: "Explicit pushback replies received from agents.",
		AgentSeries: "swift_client_agent_pushbacks_total", AgentHelp: "Pushback replies received from this agent."},
		func(s *MetricsSnapshot) *int64 { return &s.Pushbacks }, func(a *AgentStats) *int64 { return &a.Pushbacks })
	evPushback = [2]*obs.EventKind{evReadPushback, clientEvents.Kind(obs.EventKind{Trace: "write_pushback", Also: evReadPushback, Retry: true})}
	evFailover = [2]*obs.EventKind{
		clientEvents.Kind(obs.EventKind{Trace: "read_failover", Retry: true, Logged: true}),
		clientEvents.Kind(obs.EventKind{Trace: "write_failover", Retry: true, Logged: true}),
	}
	evResend = clientKind(obs.EventKind{Trace: "write_resend", Retry: true, Series: "swift_client_resend_asks_total", Help: "Agent resend requests honoured.",
		AgentSeries: "swift_client_agent_resend_asks_total", AgentHelp: "Resend requests honoured from this agent."},
		func(s *MetricsSnapshot) *int64 { return &s.ResendAsks }, func(a *AgentStats) *int64 { return &a.ResendAsks })
	evDataPacket = clientKind(obs.EventKind{Series: "swift_client_data_packets_total", Help: "Data packets sent, including resends.",
		AgentSeries: "swift_client_agent_data_packets_total", AgentHelp: "Data packets sent to this agent."},
		func(s *MetricsSnapshot) *int64 { return &s.DataPackets }, func(a *AgentStats) *int64 { return &a.DataPackets })
	evBackoff = clientKind(obs.EventKind{Series: "swift_client_backoffs_total", Help: "Retransmission waits grown beyond the base timeout.",
		AgentSeries: "swift_client_agent_backoffs_total", AgentHelp: "Backed-off retransmissions to this agent."},
		func(s *MetricsSnapshot) *int64 { return &s.Backoffs }, func(a *AgentStats) *int64 { return &a.Backoffs })
	evProbe = clientKind(obs.EventKind{Series: "swift_client_probes_total", Help: "Health probes sent."},
		func(s *MetricsSnapshot) *int64 { return &s.Probes }, nil)
	evReadmit = clientKind(obs.EventKind{Trace: "readmit", Series: "swift_client_readmissions_total", Help: "Agents automatically returned to service."},
		func(s *MetricsSnapshot) *int64 { return &s.Readmissions }, nil)
	evReadmitFail = clientEvents.Kind(obs.EventKind{Trace: "readmit_fail", Logged: true})
	evHealth      = clientKind(obs.EventKind{Trace: "health", Logged: true, AgentSeries: "swift_client_agent_transitions_total", AgentHelp: "Failure-domain lifecycle transitions."},
		nil, func(a *AgentStats) *int64 { return &a.Transitions })
	evBreaker = clientKind(obs.EventKind{Trace: "breaker", Logged: true, AgentSeries: "swift_client_agent_breaker_transitions_total", AgentHelp: "Circuit-breaker state changes for this agent."},
		nil, func(a *AgentStats) *int64 { return &a.BreakerTransitions })
	evBreakerTrip = clientKind(obs.EventKind{Series: "swift_client_breaker_trips_total", Help: "Per-agent circuit breakers tripped open."},
		func(s *MetricsSnapshot) *int64 { return &s.BreakerTrips }, nil)
	evOpenFail = clientEvents.Kind(obs.EventKind{Trace: "open_fail", Retry: true, Logged: true})
	evCorrupt  = clientKind(obs.EventKind{Trace: "corrupt", Logged: true, Series: "swift_client_corruptions_total", Help: "At-rest corruption events reported by agents.",
		AgentSeries: "swift_client_agent_corruptions_total", AgentHelp: "Corruption events reported by this agent."},
		func(s *MetricsSnapshot) *int64 { return &s.Corruptions }, func(a *AgentStats) *int64 { return &a.Corruptions })
	evRepair = clientKind(obs.EventKind{Trace: "repair", Logged: true, Series: "swift_client_repairs_total", Help: "Stripe units rewritten from parity (read-repair and scrub).",
		AgentSeries: "swift_client_agent_repairs_total", AgentHelp: "Units rewritten on this agent from parity."},
		func(s *MetricsSnapshot) *int64 { return &s.Repairs }, func(a *AgentStats) *int64 { return &a.Repairs })
	evRepairFail   = clientEvents.Kind(obs.EventKind{Trace: "repair_fail", Logged: true})
	evUnrepairable = clientKind(obs.EventKind{Trace: "unrepairable", Logged: true, Series: "swift_client_unrepairable_total", Help: "Corruption events parity could not repair."},
		func(s *MetricsSnapshot) *int64 { return &s.Unrepairable }, nil)
	evReadLost = clientEvents.Kind(obs.EventKind{Trace: "read_lost", Logged: true})
	evScrubRow = clientKind(obs.EventKind{Series: "swift_client_scrub_rows_total", Help: "Stripe rows verified by the scrubber."},
		func(s *MetricsSnapshot) *int64 { return &s.ScrubRows }, nil)
	evScrubMismatch = clientEvents.Kind(obs.EventKind{Trace: "scrub_mismatch", Logged: true})
	evScrubFail     = clientEvents.Kind(obs.EventKind{Trace: "scrub_fail", Logged: true})
	evScrubReport   = clientEvents.Kind(obs.EventKind{Trace: "scrub_report", Logged: true})
	evHedge         = clientKind(obs.EventKind{Trace: "read_hedge", Retry: true, Series: "swift_client_hedged_reads_total", Help: "Read bursts hedged after the straggler delay.",
		AgentSeries: "swift_client_agent_hedges_total", AgentHelp: "Read bursts hedged away from this agent."},
		func(s *MetricsSnapshot) *int64 { return &s.Hedges }, func(a *AgentStats) *int64 { return &a.Hedges })
	evHedgeWin = clientKind(obs.EventKind{Trace: "hedge_win", Series: "swift_client_hedge_wins_total", Help: "Hedged reads completed by parity reconstruction."},
		func(s *MetricsSnapshot) *int64 { return &s.HedgeWins }, nil)
	evBudgetDenied = clientKind(obs.EventKind{Trace: "budget_denied", Series: "swift_client_retry_budget_denials_total", Help: "Retries or hedges denied by the retry budget."},
		func(s *MetricsSnapshot) *int64 { return &s.BudgetDenials }, nil)
	evFlushFail = clientEvents.Kind(obs.EventKind{Trace: "flush_fail", Logged: true})
)

// statField is an exported kind's MetricsSnapshot field, filled from its
// Series, and AgentStats field, filled from its AgentSeries (nil: none).
type statField struct {
	kind *obs.EventKind
	snap func(*MetricsSnapshot) *int64
	stat func(*AgentStats) *int64
}

// clientKind adds an exported kind to clientEvents and its fields to
// statFields.
func clientKind(row obs.EventKind, snap func(*MetricsSnapshot) *int64, stat func(*AgentStats) *int64) *obs.EventKind {
	k := clientEvents.Kind(row)
	statFields = append(statFields, statField{k, snap, stat})
	return k
}

// newTelemetry builds and registers the client's instruments in
// Config.Obs, or in a private registry when that is nil, so every client
// always records. With parity it also exports the erasure codec's work
// counters as swift_ec_* metrics.
func newTelemetry(c *Client) *telemetry {
	reg := c.cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &telemetry{
		Events: obs.NewEvents(reg, obs.EventConfig{Layer: "core", Table: &clientEvents, Agents: len(c.cfg.Agents),
			Ring: obs.NewTraceRing(1024), Logf: c.cfg.Logf, Verbose: c.cfg.Verbose}),
		openLat:   reg.Histogram("swift_client_open_seconds", "Latency of Open calls.", nil),
		readLat:   reg.Histogram("swift_client_read_seconds", "Latency of ReadAt calls.", nil),
		writeLat:  reg.Histogram("swift_client_write_seconds", "Latency of WriteAt calls.", nil),
		probeLat:  reg.Histogram("swift_client_probe_seconds", "Latency of agent health probes.", nil),
		openFiles: reg.Gauge("swift_client_open_files", "Currently open striped files.", nil),
		ecEncodeLat: reg.Histogram("swift_ec_encode_seconds",
			"Latency of erasure-codec row encodes on the write path.", nil),
		ecReconstructLat: reg.Histogram("swift_ec_reconstruct_seconds",
			"Latency of erasure-codec row reconstructions (degraded reads, repair, rebuild).", nil),
	}
	if codec := c.codec; codec != nil {
		stat := func(f func(ec.Stats) int64) func() float64 {
			return func() float64 { return float64(f(codec.Stats())) }
		}
		reg.CounterFunc("swift_ec_encode_rows_total", "Stripe rows encoded by the erasure codec.",
			nil, stat(func(s ec.Stats) int64 { return s.EncodeCalls }))
		reg.CounterFunc("swift_ec_encode_bytes_total", "Data bytes consumed by erasure-codec encodes.",
			nil, stat(func(s ec.Stats) int64 { return s.EncodeBytes }))
		reg.CounterFunc("swift_ec_reconstruct_rows_total", "Stripe rows reconstructed by the erasure codec.",
			nil, stat(func(s ec.Stats) int64 { return s.ReconstructCalls }))
		reg.CounterFunc("swift_ec_reconstruct_bytes_total", "Shard bytes rebuilt by erasure-codec reconstructions.",
			nil, stat(func(s ec.Stats) int64 { return s.ReconstructBytes }))
		reg.CounterFunc("swift_ec_matrix_cache_hits_total", "Decode-matrix inversions served from the submatrix cache.",
			nil, stat(func(s ec.Stats) int64 { return s.InvCacheHits }))
		reg.CounterFunc("swift_ec_matrix_cache_misses_total", "Decode-matrix inversions computed and cached.",
			nil, stat(func(s ec.Stats) int64 { return s.InvCacheMisses }))
		for n := 1; n <= codec.ParityShards(); n++ {
			reg.CounterFunc("swift_ec_reconstructions_total",
				"Row reconstructions by number of missing shards.",
				obs.Labels{"failures": strconv.Itoa(n)},
				func() float64 {
					s := codec.Stats()
					if n < len(s.ByMissing) {
						return float64(s.ByMissing[n])
					}
					return 0
				})
		}
	}
	if c.budget != nil {
		reg.GaugeFunc("swift_client_retry_budget_fill",
			"Retry token bucket fill fraction (1 = full budget available).",
			nil, c.budget.fill)
	}

	t.agents = make([]agentTelemetry, len(c.cfg.Agents))
	for i := range t.agents {
		l := obs.Labels{"agent": strconv.Itoa(i)}
		at := &t.agents[i]
		at.state = reg.Gauge("swift_client_agent_state", "Lifecycle state: 0 healthy, 1 suspect, 2 down.", l)
		at.packetBytes = reg.Gauge("swift_client_agent_packet_bytes", "Data-packet size the latest session with this agent agreed at open.", l)
		at.burstLat[reading] = reg.Histogram("swift_client_agent_read_burst_seconds", "Read burst completion latency per agent.", l)
		at.burstLat[writing] = reg.Histogram("swift_client_agent_write_burst_seconds", "Write burst completion latency per agent.", l)
		reg.GaugeFunc("swift_client_agent_breaker_state", "Breaker state: 0 closed, 1 open, 2 half-open.", l,
			func() float64 { return float64(c.breakers[i].current()) })
	}
	return t
}

// Obs returns the client's metric registry, for export (swift-load's
// /metrics endpoint, the swift facade's Stats snapshot).
func (c *Client) Obs() *obs.Registry { return c.tel.Registry() }

// Trace returns the client's trace-event ring.
func (c *Client) Trace() *obs.TraceRing { return c.tel.Ring() }

// MetricsSnapshot is a value copy of the client's protocol counters: plain
// integers, so callers can difference, print and compare snapshots without
// touching live atomics.
type MetricsSnapshot struct {
	ReadBursts    int64
	ReadTimeouts  int64
	WriteBursts   int64
	WriteTimeouts int64
	ResendAsks    int64
	DataPackets   int64
	Backoffs      int64
	Probes        int64
	Readmissions  int64
	Corruptions   int64
	Repairs       int64
	Unrepairable  int64
	ScrubRows     int64
	Pushbacks     int64
	Hedges        int64
	HedgeWins     int64
	BudgetDenials int64
	BreakerTrips  int64
}

// Sub returns the counter deltas s - prev.
func (s MetricsSnapshot) Sub(prev MetricsSnapshot) MetricsSnapshot {
	for _, f := range statFields {
		if f.snap != nil {
			*f.snap(&s) -= *f.snap(&prev)
		}
	}
	return s
}

// MetricsSnapshot returns a value copy of the protocol counters: each
// global series of the event table, in its field.
func (c *Client) MetricsSnapshot() MetricsSnapshot {
	var s MetricsSnapshot
	for _, f := range statFields {
		if f.snap != nil {
			*f.snap(&s) = c.tel.Total(f.kind)
		}
	}
	return s
}

// AgentStats is one agent's telemetry snapshot: protocol attribution and
// burst latency percentiles.
type AgentStats struct {
	Addr          string
	State         AgentState
	ReadBursts    int64
	ReadTimeouts  int64
	WriteBursts   int64
	WriteTimeouts int64
	Backoffs      int64
	ResendAsks    int64
	DataPackets   int64
	Corruptions   int64
	Repairs       int64
	Transitions   int64
	// PacketBytes is the data-packet size the latest session with this
	// agent agreed at open (0 before any session).
	PacketBytes   int64
	ReadBurstLat  obs.Snapshot
	WriteBurstLat obs.Snapshot

	Pushbacks          int64
	Hedges             int64
	Breaker            BreakerState
	BreakerTransitions int64
}

// StatsSnapshot is the whole client's telemetry at one instant: protocol
// counters, per-operation latency and the per-agent breakdown.
type StatsSnapshot struct {
	Counters  MetricsSnapshot
	OpenLat   obs.Snapshot
	ReadLat   obs.Snapshot
	WriteLat  obs.Snapshot
	ProbeLat  obs.Snapshot
	OpenFiles int64
	Agents    []AgentStats

	// Scheme is the redundancy scheme ("m+k" or "none"); EC holds the
	// erasure codec's work counters (zero without parity).
	Scheme           string
	EC               ec.Stats
	ECEncodeLat      obs.Snapshot
	ECReconstructLat obs.Snapshot

	// BudgetFill is the retry token bucket's fill fraction in [0,1]; the
	// overload-control counters are in Counters.
	BudgetFill float64

	// Cache is the block cache's counters (zeros when caching is off).
	Cache cache.Stats
}

// Stats snapshots the client's telemetry. It is safe to call during live
// transfers; recording is never blocked.
func (c *Client) Stats() StatsSnapshot {
	s := StatsSnapshot{
		Counters:  c.MetricsSnapshot(),
		OpenLat:   c.tel.openLat.Snapshot(),
		ReadLat:   c.tel.readLat.Snapshot(),
		WriteLat:  c.tel.writeLat.Snapshot(),
		ProbeLat:  c.tel.probeLat.Snapshot(),
		OpenFiles: c.tel.openFiles.Load(),

		Scheme:           c.Scheme(),
		EC:               c.ECStats(),
		ECEncodeLat:      c.tel.ecEncodeLat.Snapshot(),
		ECReconstructLat: c.tel.ecReconstructLat.Snapshot(),

		BudgetFill: c.budget.fill(),
		Cache:      c.CacheStats(),
	}
	health := c.Health()
	s.Agents = make([]AgentStats, len(c.tel.agents))
	for i := range c.tel.agents {
		at := &c.tel.agents[i]
		as := &s.Agents[i]
		for _, f := range statFields {
			if f.stat != nil {
				*f.stat(as) = c.tel.Load(f.kind, i)
			}
		}
		as.Addr = c.cfg.Agents[i]
		if i < len(health) {
			as.State = health[i].State
		}
		as.PacketBytes = at.packetBytes.Load()
		as.ReadBurstLat = at.burstLat[reading].Snapshot()
		as.WriteBurstLat = at.burstLat[writing].Snapshot()
		as.Breaker = c.breakers[i].current()
	}
	return s
}

// ecEncode runs the client's codec over one row's shards, timing the
// call into swift_ec_encode_seconds. The codec itself is clock-free; all
// timing lives here on the client.
func (f *File) ecEncode(shards [][]byte) error {
	start := time.Now()
	err := f.c.codec.Encode(shards)
	f.c.tel.ecEncodeLat.Observe(time.Since(start))
	return err
}

// ecReconstruct rebuilds the shards of one row that out asks for (see
// ec.Codec.ReconstructInto) through the codec, timing the call into
// swift_ec_reconstruct_seconds.
func (f *File) ecReconstruct(shards, out [][]byte) error {
	start := time.Now()
	err := f.c.codec.ReconstructInto(shards, out)
	f.c.tel.ecReconstructLat.Observe(time.Since(start))
	return err
}

// observeSpan records the time elapsed since start into h, with a
// histogram exemplar: when sp belongs to a trace, the observation carries
// the trace id so exported percentiles link to a concrete kept trace.
func observeSpan(h *obs.Histogram, start time.Time, sp *obs.Span) {
	observeDur(h, time.Since(start), sp)
}

// observeDur is observeSpan for a duration the caller already measured.
func observeDur(h *obs.Histogram, d time.Duration, sp *obs.Span) {
	if id := sp.Context().TraceID; id != 0 {
		h.ObserveExemplar(d, id)
		return
	}
	h.Observe(d)
}

// Tracer returns the client's span tracer (nil when tracing is disabled).
func (c *Client) Tracer() *obs.Tracer { return c.tracer }
