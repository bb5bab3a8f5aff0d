package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"swift/internal/cache"
	"swift/internal/ec"
	"swift/internal/obs"
)

// telemetry is the client's observability surface: per-operation latency
// histograms, per-agent burst latency, and the client's events — every
// incident is reported by one call (count or note), and its counters,
// trace ring entry, span note and log line all come from the event table.
// Everything recorded on the data path is an atomic add into
// pre-resolved instruments; registration happens once in Dial.
type telemetry struct {
	reg   *obs.Registry
	trace *obs.TraceRing
	logf  func(format string, args ...any) // Config.Logf, for logged events

	// n holds the counters of each kind with an exported series: slot 0
	// unattributed, slot i+1 agent i. Kinds that share a counter share
	// the slice; kinds with no series have none.
	n [numEvents][]*obs.Counter

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
// instruments; its events are counted in telemetry.n.
type agentTelemetry struct {
	state       *obs.Gauge        // current AgentState, set at each transition
	packetBytes *obs.Gauge        // data-packet size the latest session agreed at open
	burstLat    [2]*obs.Histogram // burst completion latency, by direction
}

// event is one kind of client incident. A read kind is followed by its
// write twin, so kind+event(dir) picks the direction's.
type event uint8

const (
	evReadBurst event = iota
	evWriteBurst
	evReadTimeout
	evWriteTimeout
	evReadGiveUp
	evWriteGiveUp
	evReadPushback
	evWritePushback
	evReadFailover
	evWriteFailover
	evResend
	evDataPacket
	evBackoff
	evProbe
	evReadmit
	evReadmitFail
	evHealth
	evBreaker
	evBreakerTrip
	evOpenFail
	evCorrupt
	evRepair
	evRepairFail
	evUnrepairable
	evReadLost
	evScrubRow
	evScrubMismatch
	evScrubFail
	evScrubReport
	evHedge
	evHedgeWin
	evBudgetDenied
	evFlushFail
	numEvents
)

// eventKind is how one kind of event is reported.
type eventKind struct {
	trace string // trace ring Kind; "" for kinds that are only counted
	// global is the swift_client_*_total series summing every slot, and
	// snap the MetricsSnapshot field it fills; agent is the per-agent
	// swift_client_agent_*_total series, and stat the AgentStats field it
	// fills ("": not exported).
	global, help     string
	snap             func(*MetricsSnapshot) *int64
	agent, agentHelp string
	stat             func(*AgentStats) *int64
	shares           event // an earlier kind whose counter this one adds to; zero: its own
	retry, logged    bool  // the note marks its span retried; prints through Config.Logf
}

// events is the client's event table.
var events = [numEvents]eventKind{
	evReadBurst: {global: "swift_client_read_bursts_total", help: "Read burst requests issued.", snap: func(s *MetricsSnapshot) *int64 { return &s.ReadBursts },
		agent: "swift_client_agent_read_bursts_total", agentHelp: "Read bursts issued to this agent.", stat: func(a *AgentStats) *int64 { return &a.ReadBursts }},
	evWriteBurst: {global: "swift_client_write_bursts_total", help: "Write bursts issued.", snap: func(s *MetricsSnapshot) *int64 { return &s.WriteBursts },
		agent: "swift_client_agent_write_bursts_total", agentHelp: "Write bursts issued to this agent.", stat: func(a *AgentStats) *int64 { return &a.WriteBursts }},
	evReadTimeout: {trace: "read_timeout", retry: true, global: "swift_client_read_timeouts_total", help: "Read bursts that needed resubmission.", snap: func(s *MetricsSnapshot) *int64 { return &s.ReadTimeouts },
		agent: "swift_client_agent_read_timeouts_total", agentHelp: "Read burst timeouts on this agent.", stat: func(a *AgentStats) *int64 { return &a.ReadTimeouts }},
	evWriteTimeout: {trace: "write_timeout", retry: true, global: "swift_client_write_timeouts_total", help: "Write bursts re-announced after silence.", snap: func(s *MetricsSnapshot) *int64 { return &s.WriteTimeouts },
		agent: "swift_client_agent_write_timeouts_total", agentHelp: "Write burst timeouts on this agent.", stat: func(a *AgentStats) *int64 { return &a.WriteTimeouts }},
	evReadGiveUp:  {trace: "read_giveup", shares: evReadTimeout, retry: true},
	evWriteGiveUp: {trace: "write_giveup", shares: evWriteTimeout, retry: true},
	evReadPushback: {trace: "read_pushback", retry: true, global: "swift_client_pushbacks_total", help: "Explicit pushback replies received from agents.", snap: func(s *MetricsSnapshot) *int64 { return &s.Pushbacks },
		agent: "swift_client_agent_pushbacks_total", agentHelp: "Pushback replies received from this agent.", stat: func(a *AgentStats) *int64 { return &a.Pushbacks }},
	evWritePushback: {trace: "write_pushback", shares: evReadPushback, retry: true},
	evReadFailover:  {trace: "read_failover", retry: true, logged: true},
	evWriteFailover: {trace: "write_failover", retry: true, logged: true},
	evResend: {trace: "write_resend", retry: true, global: "swift_client_resend_asks_total", help: "Agent resend requests honoured.", snap: func(s *MetricsSnapshot) *int64 { return &s.ResendAsks },
		agent: "swift_client_agent_resend_asks_total", agentHelp: "Resend requests honoured from this agent.", stat: func(a *AgentStats) *int64 { return &a.ResendAsks }},
	evDataPacket: {global: "swift_client_data_packets_total", help: "Data packets sent, including resends.", snap: func(s *MetricsSnapshot) *int64 { return &s.DataPackets },
		agent: "swift_client_agent_data_packets_total", agentHelp: "Data packets sent to this agent.", stat: func(a *AgentStats) *int64 { return &a.DataPackets }},
	evBackoff: {global: "swift_client_backoffs_total", help: "Retransmission waits grown beyond the base timeout.", snap: func(s *MetricsSnapshot) *int64 { return &s.Backoffs },
		agent: "swift_client_agent_backoffs_total", agentHelp: "Backed-off retransmissions to this agent.", stat: func(a *AgentStats) *int64 { return &a.Backoffs }},
	evProbe:       {global: "swift_client_probes_total", help: "Health probes sent.", snap: func(s *MetricsSnapshot) *int64 { return &s.Probes }},
	evReadmit:     {trace: "readmit", global: "swift_client_readmissions_total", help: "Agents automatically returned to service.", snap: func(s *MetricsSnapshot) *int64 { return &s.Readmissions }},
	evReadmitFail: {trace: "readmit_fail", logged: true},
	evHealth: {trace: "health", logged: true,
		agent: "swift_client_agent_transitions_total", agentHelp: "Failure-domain lifecycle transitions.", stat: func(a *AgentStats) *int64 { return &a.Transitions }},
	evBreaker: {trace: "breaker", logged: true,
		agent: "swift_client_agent_breaker_transitions_total", agentHelp: "Circuit-breaker state changes for this agent.", stat: func(a *AgentStats) *int64 { return &a.BreakerTransitions }},
	evBreakerTrip: {global: "swift_client_breaker_trips_total", help: "Per-agent circuit breakers tripped open.", snap: func(s *MetricsSnapshot) *int64 { return &s.BreakerTrips }},
	evOpenFail:    {trace: "open_fail", retry: true, logged: true},
	evCorrupt: {trace: "corrupt", logged: true, global: "swift_client_corruptions_total", help: "At-rest corruption events reported by agents.", snap: func(s *MetricsSnapshot) *int64 { return &s.Corruptions },
		agent: "swift_client_agent_corruptions_total", agentHelp: "Corruption events reported by this agent.", stat: func(a *AgentStats) *int64 { return &a.Corruptions }},
	evRepair: {trace: "repair", logged: true, global: "swift_client_repairs_total", help: "Stripe units rewritten from parity (read-repair and scrub).", snap: func(s *MetricsSnapshot) *int64 { return &s.Repairs },
		agent: "swift_client_agent_repairs_total", agentHelp: "Units rewritten on this agent from parity.", stat: func(a *AgentStats) *int64 { return &a.Repairs }},
	evRepairFail:    {trace: "repair_fail", logged: true},
	evUnrepairable:  {trace: "unrepairable", logged: true, global: "swift_client_unrepairable_total", help: "Corruption events parity could not repair.", snap: func(s *MetricsSnapshot) *int64 { return &s.Unrepairable }},
	evReadLost:      {trace: "read_lost", logged: true},
	evScrubRow:      {global: "swift_client_scrub_rows_total", help: "Stripe rows verified by the scrubber.", snap: func(s *MetricsSnapshot) *int64 { return &s.ScrubRows }},
	evScrubMismatch: {trace: "scrub_mismatch", logged: true},
	evScrubFail:     {trace: "scrub_fail", logged: true},
	evScrubReport:   {trace: "scrub_report", logged: true},
	evHedge: {trace: "read_hedge", retry: true, global: "swift_client_hedged_reads_total", help: "Read bursts hedged after the straggler delay.", snap: func(s *MetricsSnapshot) *int64 { return &s.Hedges },
		agent: "swift_client_agent_hedges_total", agentHelp: "Read bursts hedged away from this agent.", stat: func(a *AgentStats) *int64 { return &a.Hedges }},
	evHedgeWin:     {trace: "hedge_win", global: "swift_client_hedge_wins_total", help: "Hedged reads completed by parity reconstruction.", snap: func(s *MetricsSnapshot) *int64 { return &s.HedgeWins }},
	evBudgetDenied: {trace: "budget_denied", global: "swift_client_retry_budget_denials_total", help: "Retries or hedges denied by the retry budget.", snap: func(s *MetricsSnapshot) *int64 { return &s.BudgetDenials }},
	evFlushFail:    {trace: "flush_fail", logged: true},
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
	t.logf = c.cfg.Logf
	type counterFunc struct {
		name, help string
		load       func() int64
	}
	var funcs []counterFunc
	if codec := c.codec; codec != nil {
		funcs = []counterFunc{
			{"swift_ec_encode_rows_total", "Stripe rows encoded by the erasure codec.",
				func() int64 { return codec.Stats().EncodeCalls }},
			{"swift_ec_encode_bytes_total", "Data bytes consumed by erasure-codec encodes.",
				func() int64 { return codec.Stats().EncodeBytes }},
			{"swift_ec_reconstruct_rows_total", "Stripe rows reconstructed by the erasure codec.",
				func() int64 { return codec.Stats().ReconstructCalls }},
			{"swift_ec_reconstruct_bytes_total", "Shard bytes rebuilt by erasure-codec reconstructions.",
				func() int64 { return codec.Stats().ReconstructBytes }},
			{"swift_ec_matrix_cache_hits_total", "Decode-matrix inversions served from the submatrix cache.",
				func() int64 { return codec.Stats().InvCacheHits }},
			{"swift_ec_matrix_cache_misses_total", "Decode-matrix inversions computed and cached.",
				func() int64 { return codec.Stats().InvCacheMisses }},
		}
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
	for k, e := range events {
		if e.shares != 0 {
			t.n[k] = t.n[e.shares]
			continue
		}
		if e.global == "" && e.agent == "" {
			continue
		}
		t.n[k] = make([]*obs.Counter, len(c.cfg.Agents)+1)
		for i := range t.n[k] {
			if i > 0 && e.agent != "" {
				//lint:allow metricname names and help strings are literals in the event table; the loop only threads them
				t.n[k][i] = reg.Counter(e.agent, e.agentHelp, obs.Labels{"agent": strconv.Itoa(i - 1)})
			} else {
				t.n[k][i] = new(obs.Counter)
			}
		}
		if e.global != "" {
			funcs = append(funcs, counterFunc{e.global, e.help, func() int64 { return t.total(event(k)) }})
		}
	}
	for _, f := range funcs {
		//lint:allow metricname names and help strings are literals in the codec and event tables; the loop only threads the closure
		reg.CounterFunc(f.name, f.help, nil, func() float64 { return float64(f.load()) })
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

// count adds one event of kind k on agent (-1: unattributed), in one
// atomic add.
//
//swift:hotpath
func (t *telemetry) count(k event, agent int) { t.n[k][agent+1].Inc() }

// note reports one event of kind k on agent: it is counted (when the kind
// has a series), emitted to the trace ring, noted on sp (nil: no span)
// and, for logged kinds, printed through Config.Logf, synchronously. The
// span note and the log line name the event by its trace kind in words:
// "read timeout agent 2: ...".
func (t *telemetry) note(k event, agent int, sp *obs.Span, format string, args ...any) {
	if t.n[k] != nil {
		t.count(k, agent)
	}
	e := &events[k]
	msg := fmt.Sprintf(format, args...)
	t.trace.Emit(obs.Event{Layer: "core", Kind: e.trace, Agent: agent, Msg: msg, Logged: e.logged})
	if e.retry {
		sp.MarkRetry()
	}
	what := strings.ReplaceAll(e.trace, "_", " ")
	if agent >= 0 {
		what += " agent " + strconv.Itoa(agent)
	}
	sp.Annotate("%s: %s", what, msg)
	if e.logged {
		t.logf("core: %s: %s", what, msg)
	}
}

// total sums kind k's counter over every slot.
func (t *telemetry) total(k event) (n int64) {
	for _, c := range t.n[k] {
		n += c.Load()
	}
	return n
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
	for _, e := range events {
		if e.snap != nil {
			*e.snap(&s) -= *e.snap(&prev)
		}
	}
	return s
}

// MetricsSnapshot returns a value copy of the protocol counters: each
// global series of the event table, in its field.
func (c *Client) MetricsSnapshot() MetricsSnapshot {
	var s MetricsSnapshot
	for k, e := range events {
		if e.snap != nil {
			*e.snap(&s) = c.tel.total(event(k))
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
		for k, e := range events {
			if e.stat != nil {
				*e.stat(as) = c.tel.n[k][i+1].Load()
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
