package core

import (
	"strconv"
	"time"

	"swift/internal/cache"
	"swift/internal/ec"
	"swift/internal/obs"
)

// telemetry is the client's observability surface: per-operation latency
// histograms, per-agent protocol attribution, lifecycle transition
// counters and a trace-event ring. Everything recorded on the data path
// is an atomic add into pre-resolved instruments; registration happens
// once in Dial.
type telemetry struct {
	reg   *obs.Registry
	trace *obs.TraceRing

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

// agentTelemetry attributes protocol events and burst latency to one
// storage agent.
type agentTelemetry struct {
	bursts      [2]*obs.Counter // by direction
	timeouts    [2]*obs.Counter // by direction
	backoffs    *obs.Counter
	resendAsks  *obs.Counter
	dataPackets *obs.Counter
	corruptions *obs.Counter      // corrupt reads/writes reported by this agent
	repairs     *obs.Counter      // units rewritten on this agent from parity
	transitions *obs.Counter      // lifecycle state changes
	state       *obs.Gauge        // current AgentState as integer
	packetBytes *obs.Gauge        // data-packet size the latest session agreed
	burstLat    [2]*obs.Histogram // burst completion latency, by direction

	// Overload control (see overload.go).
	pushbacks          *obs.Counter // pushback replies received from this agent
	hedges             *obs.Counter // read bursts hedged away from this agent
	breakerTransitions *obs.Counter // circuit-breaker state changes
	breakerState       *obs.Gauge   // current BreakerState as integer
}

// newTelemetry builds and registers the client's instruments. When reg is
// nil a private registry is created, so every client always records.
// codec, when non-nil, additionally exports the erasure-coding work
// counters as swift_ec_* metrics.
func newTelemetry(reg *obs.Registry, agents []string, m *Metrics, codec ec.Codec, budget *tokenBucket) *telemetry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &telemetry{
		reg:       reg,
		trace:     obs.NewTraceRing(1024),
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
	if codec != nil {
		ecLoads := []struct {
			name, help string
			load       func(ec.Stats) int64
		}{
			{"swift_ec_encode_rows_total", "Stripe rows encoded by the erasure codec.",
				func(s ec.Stats) int64 { return s.EncodeCalls }},
			{"swift_ec_encode_bytes_total", "Data bytes consumed by erasure-codec encodes.",
				func(s ec.Stats) int64 { return s.EncodeBytes }},
			{"swift_ec_reconstruct_rows_total", "Stripe rows reconstructed by the erasure codec.",
				func(s ec.Stats) int64 { return s.ReconstructCalls }},
			{"swift_ec_reconstruct_bytes_total", "Shard bytes rebuilt by erasure-codec reconstructions.",
				func(s ec.Stats) int64 { return s.ReconstructBytes }},
			{"swift_ec_matrix_cache_hits_total", "Decode-matrix inversions served from the submatrix cache.",
				func(s ec.Stats) int64 { return s.InvCacheHits }},
			{"swift_ec_matrix_cache_misses_total", "Decode-matrix inversions computed and cached.",
				func(s ec.Stats) int64 { return s.InvCacheMisses }},
		}
		for _, g := range ecLoads {
			load := g.load
			//lint:allow metricname names and help strings are literals in the table above; the loop only threads the closure
			reg.CounterFunc(g.name, g.help, nil, func() float64 { return float64(load(codec.Stats())) })
		}
		for n := 1; n <= codec.ParityShards(); n++ {
			n := n
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

	// Global protocol counters: exported from the live atomics rather than
	// double-booked.
	global := []struct {
		name, help string
		load       func() int64
	}{
		{"swift_client_read_bursts_total", "Read burst requests issued.", m.Bursts[reading].Load},
		{"swift_client_read_timeouts_total", "Read bursts that needed resubmission.", m.Timeouts[reading].Load},
		{"swift_client_write_bursts_total", "Write bursts issued.", m.Bursts[writing].Load},
		{"swift_client_write_timeouts_total", "Write bursts re-announced after silence.", m.Timeouts[writing].Load},
		{"swift_client_resend_asks_total", "Agent resend requests honoured.", m.ResendAsks.Load},
		{"swift_client_data_packets_total", "Data packets sent, including resends.", m.DataPackets.Load},
		{"swift_client_backoffs_total", "Retransmission waits grown beyond the base timeout.", m.Backoffs.Load},
		{"swift_client_probes_total", "Health probes sent.", m.Probes.Load},
		{"swift_client_readmissions_total", "Agents automatically returned to service.", m.Readmissions.Load},
		{"swift_client_corruptions_total", "At-rest corruption events reported by agents.", m.Corruptions.Load},
		{"swift_client_repairs_total", "Stripe units rewritten from parity (read-repair and scrub).", m.Repairs.Load},
		{"swift_client_unrepairable_total", "Corruption events parity could not repair.", m.Unrepairable.Load},
		{"swift_client_scrub_rows_total", "Stripe rows verified by the scrubber.", m.ScrubRows.Load},
		{"swift_client_pushbacks_total", "Explicit pushback replies received from agents.", m.Pushbacks.Load},
		{"swift_client_hedged_reads_total", "Read bursts hedged after the straggler delay.", m.Hedges.Load},
		{"swift_client_hedge_wins_total", "Hedged reads completed by parity reconstruction.", m.HedgeWins.Load},
		{"swift_client_retry_budget_denials_total", "Retries or hedges denied by the retry budget.", m.BudgetDenials.Load},
		{"swift_client_breaker_trips_total", "Per-agent circuit breakers tripped open.", m.BreakerTrips.Load},
	}
	for _, g := range global {
		load := g.load
		//lint:allow metricname names and help strings are literals in the table above; the loop only threads the closure
		reg.CounterFunc(g.name, g.help, nil, func() float64 { return float64(load()) })
	}
	if budget != nil {
		reg.GaugeFunc("swift_client_retry_budget_fill",
			"Retry token bucket fill fraction (1 = full budget available).",
			nil, budget.fill)
	}

	t.agents = make([]agentTelemetry, len(agents))
	for i := range agents {
		l := obs.Labels{"agent": strconv.Itoa(i)}
		at := &t.agents[i]
		at.bursts[reading] = reg.Counter("swift_client_agent_read_bursts_total", "Read bursts issued to this agent.", l)
		at.timeouts[reading] = reg.Counter("swift_client_agent_read_timeouts_total", "Read burst timeouts on this agent.", l)
		at.bursts[writing] = reg.Counter("swift_client_agent_write_bursts_total", "Write bursts issued to this agent.", l)
		at.timeouts[writing] = reg.Counter("swift_client_agent_write_timeouts_total", "Write burst timeouts on this agent.", l)
		at.backoffs = reg.Counter("swift_client_agent_backoffs_total", "Backed-off retransmissions to this agent.", l)
		at.resendAsks = reg.Counter("swift_client_agent_resend_asks_total", "Resend requests honoured from this agent.", l)
		at.dataPackets = reg.Counter("swift_client_agent_data_packets_total", "Data packets sent to this agent.", l)
		at.corruptions = reg.Counter("swift_client_agent_corruptions_total", "Corruption events reported by this agent.", l)
		at.repairs = reg.Counter("swift_client_agent_repairs_total", "Units rewritten on this agent from parity.", l)
		at.transitions = reg.Counter("swift_client_agent_transitions_total", "Failure-domain lifecycle transitions.", l)
		at.state = reg.Gauge("swift_client_agent_state", "Lifecycle state: 0 healthy, 1 suspect, 2 down.", l)
		at.packetBytes = reg.Gauge("swift_client_agent_packet_bytes", "Data-packet size the latest session with this agent agreed at open.", l)
		at.burstLat[reading] = reg.Histogram("swift_client_agent_read_burst_seconds", "Read burst completion latency per agent.", l)
		at.burstLat[writing] = reg.Histogram("swift_client_agent_write_burst_seconds", "Write burst completion latency per agent.", l)
		at.pushbacks = reg.Counter("swift_client_agent_pushbacks_total", "Pushback replies received from this agent.", l)
		at.hedges = reg.Counter("swift_client_agent_hedges_total", "Read bursts hedged away from this agent.", l)
		at.breakerTransitions = reg.Counter("swift_client_agent_breaker_transitions_total", "Circuit-breaker state changes for this agent.", l)
		at.breakerState = reg.Gauge("swift_client_agent_breaker_state", "Breaker state: 0 closed, 1 open, 2 half-open.", l)
	}
	return t
}

// agent returns agent i's instrument set (never nil for valid i).
func (t *telemetry) agent(i int) *agentTelemetry {
	if i < 0 || i >= len(t.agents) {
		return &agentTelemetry{}
	}
	return &t.agents[i]
}

// Obs returns the client's metric registry, for export (swift-load's
// /metrics endpoint, the swift facade's Stats snapshot).
func (c *Client) Obs() *obs.Registry { return c.tel.reg }

// Trace returns the client's trace-event ring.
func (c *Client) Trace() *obs.TraceRing { return c.tel.trace }

// TraceEvents returns up to n recent trace events, oldest first.
func (c *Client) TraceEvents(n int) []obs.Event { return c.tel.trace.Last(n) }

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
	return MetricsSnapshot{
		ReadBursts:    s.ReadBursts - prev.ReadBursts,
		ReadTimeouts:  s.ReadTimeouts - prev.ReadTimeouts,
		WriteBursts:   s.WriteBursts - prev.WriteBursts,
		WriteTimeouts: s.WriteTimeouts - prev.WriteTimeouts,
		ResendAsks:    s.ResendAsks - prev.ResendAsks,
		DataPackets:   s.DataPackets - prev.DataPackets,
		Backoffs:      s.Backoffs - prev.Backoffs,
		Probes:        s.Probes - prev.Probes,
		Readmissions:  s.Readmissions - prev.Readmissions,
		Corruptions:   s.Corruptions - prev.Corruptions,
		Repairs:       s.Repairs - prev.Repairs,
		Unrepairable:  s.Unrepairable - prev.Unrepairable,
		ScrubRows:     s.ScrubRows - prev.ScrubRows,
		Pushbacks:     s.Pushbacks - prev.Pushbacks,
		Hedges:        s.Hedges - prev.Hedges,
		HedgeWins:     s.HedgeWins - prev.HedgeWins,
		BudgetDenials: s.BudgetDenials - prev.BudgetDenials,
		BreakerTrips:  s.BreakerTrips - prev.BreakerTrips,
	}
}

// MetricsSnapshot returns a value copy of the protocol counters.
func (c *Client) MetricsSnapshot() MetricsSnapshot {
	m := &c.metrics
	return MetricsSnapshot{
		ReadBursts:    m.Bursts[reading].Load(),
		ReadTimeouts:  m.Timeouts[reading].Load(),
		WriteBursts:   m.Bursts[writing].Load(),
		WriteTimeouts: m.Timeouts[writing].Load(),
		ResendAsks:    m.ResendAsks.Load(),
		DataPackets:   m.DataPackets.Load(),
		Backoffs:      m.Backoffs.Load(),
		Probes:        m.Probes.Load(),
		Readmissions:  m.Readmissions.Load(),
		Corruptions:   m.Corruptions.Load(),
		Repairs:       m.Repairs.Load(),
		Unrepairable:  m.Unrepairable.Load(),
		ScrubRows:     m.ScrubRows.Load(),
		Pushbacks:     m.Pushbacks.Load(),
		Hedges:        m.Hedges.Load(),
		HedgeWins:     m.HedgeWins.Load(),
		BudgetDenials: m.BudgetDenials.Load(),
		BreakerTrips:  m.BreakerTrips.Load(),
	}
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
		as.Addr = c.cfg.Agents[i]
		if i < len(health) {
			as.State = health[i].State
		}
		as.ReadBursts = at.bursts[reading].Load()
		as.ReadTimeouts = at.timeouts[reading].Load()
		as.WriteBursts = at.bursts[writing].Load()
		as.WriteTimeouts = at.timeouts[writing].Load()
		as.Backoffs = at.backoffs.Load()
		as.ResendAsks = at.resendAsks.Load()
		as.DataPackets = at.dataPackets.Load()
		as.Corruptions = at.corruptions.Load()
		as.Repairs = at.repairs.Load()
		as.Transitions = at.transitions.Load()
		as.PacketBytes = at.packetBytes.Load()
		as.ReadBurstLat = at.burstLat[reading].Snapshot()
		as.WriteBurstLat = at.burstLat[writing].Snapshot()
		as.Pushbacks = at.pushbacks.Load()
		as.Hedges = at.hedges.Load()
		as.BreakerTransitions = at.breakerTransitions.Load()
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

// traceEvent emits a structured trace event; with Verbose configured the
// event also reaches Config.Logf (wired up in Dial via the ring's sink).
func (c *Client) traceEvent(kind string, agent int, format string, args ...any) {
	c.tel.trace.Emitf("core", kind, agent, format, args...)
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
