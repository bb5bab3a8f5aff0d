package agent

import (
	"time"

	"swift/internal/obs"
)

// telemetry is the storage agent's observability surface: request service
// time histograms, traffic counters and a trace-event ring. Instruments
// are registered once in New; recording is atomic on the data path.
type telemetry struct {
	reg   *obs.Registry
	trace *obs.TraceRing

	opens        *obs.Counter   // open requests accepted
	openRejects  *obs.Counter   // opens rejected (session cap, store errors)
	sessions     *obs.Gauge     // live sessions
	readReqs     *obs.Counter   // read requests served
	readBytes    *obs.Counter   // payload bytes streamed out
	readServeLat *obs.Histogram // serveRead duration (disk + transmit)
	writeBursts  *obs.Counter   // write bursts completed
	writeBytes   *obs.Counter   // payload bytes received and applied
	writeLat     *obs.Histogram // announce (or first data) → completion
	resendReqs   *obs.Counter   // resend prompts sent to clients
	syncLat      *obs.Histogram // store sync latency
	dataPackets  *obs.Counter   // data packets received
	badPackets   *obs.Counter   // undecodable packets
	idleReaps    *obs.Counter   // sessions torn down by the idle timer
	corruptErrs  *obs.Counter   // at-rest corruption detected by the store
	earlyData    *obs.Counter   // data packets dropped for lack of an announce
	orphanBursts *obs.Counter   // never-announced bursts dropped after DoneTTL
	shedDeadline *obs.Counter   // reads shed: propagated deadline already spent
	shedQueue    *obs.Counter   // reads shed: service queue over admission quota
	pushbacks    *obs.Counter   // explicit pushback replies sent
}

// newAgentTelemetry builds and registers the agent's instruments.
func newAgentTelemetry(reg *obs.Registry) *telemetry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &telemetry{
		reg:          reg,
		trace:        obs.NewTraceRing(512),
		opens:        reg.Counter("swift_agent_opens_total", "Open requests accepted.", nil),
		openRejects:  reg.Counter("swift_agent_open_rejects_total", "Open requests rejected.", nil),
		sessions:     reg.Gauge("swift_agent_sessions", "Live file sessions.", nil),
		readReqs:     reg.Counter("swift_agent_read_requests_total", "Read requests served.", nil),
		readBytes:    reg.Counter("swift_agent_read_bytes_total", "Payload bytes streamed to clients.", nil),
		readServeLat: reg.Histogram("swift_agent_read_serve_seconds", "Read request service time (store fetch + transmit).", nil),
		writeBursts:  reg.Counter("swift_agent_write_bursts_total", "Write bursts completed.", nil),
		writeBytes:   reg.Counter("swift_agent_write_bytes_total", "Payload bytes received and applied.", nil),
		writeLat:     reg.Histogram("swift_agent_write_burst_seconds", "Write burst completion time (first sight to ack).", nil),
		resendReqs:   reg.Counter("swift_agent_resend_requests_total", "Resend prompts sent to clients.", nil),
		syncLat:      reg.Histogram("swift_agent_sync_seconds", "Store sync (stable-write) latency.", nil),
		dataPackets:  reg.Counter("swift_agent_data_packets_total", "Data packets received.", nil),
		badPackets:   reg.Counter("swift_agent_bad_packets_total", "Undecodable packets dropped.", nil),
		idleReaps:    reg.Counter("swift_agent_idle_reaps_total", "Sessions torn down by the idle timer.", nil),
		corruptErrs:  reg.Counter("swift_agent_corruptions_total", "At-rest corruption errors surfaced by the store.", nil),
		earlyData:    reg.Counter("swift_agent_early_data_total", "Write data packets dropped for lack of an announce.", nil),
		orphanBursts: reg.Counter("swift_agent_orphan_bursts_total", "Write bursts dropped because their data was never announced.", nil),
		shedDeadline: reg.Counter("swift_agent_shed_deadline_total", "Read requests shed because their propagated deadline was already spent.", nil),
		shedQueue:    reg.Counter("swift_agent_shed_queue_total", "Read requests shed by the bounded service queue.", nil),
		pushbacks:    reg.Counter("swift_agent_pushbacks_total", "Explicit pushback replies sent to clients.", nil),
	}
}

// Obs returns the agent's metric registry, for export.
func (a *Agent) Obs() *obs.Registry { return a.tel.reg }

// Trace returns the agent's trace-event ring.
func (a *Agent) Trace() *obs.TraceRing { return a.tel.trace }

// traceEvent emits a structured trace event into the agent's ring (and,
// with Verbose, to Logf via the ring's sink).
func (a *Agent) traceEvent(kind string, format string, args ...any) {
	a.tel.trace.Emitf("agent", kind, -1, format, args...)
}

// syncTimed wraps a store sync with latency recording.
func (a *Agent) syncTimed(sync func() error) error {
	start := time.Now()
	err := sync()
	a.tel.syncLat.Observe(time.Since(start))
	return err
}
