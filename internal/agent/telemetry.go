package agent

import (
	"time"

	"swift/internal/obs"
)

// telemetry is the storage agent's observability surface: request service
// time histograms, the live-session gauge, and the agent's events — every
// incident is reported by one call (Count, Add or Note), and its counter,
// trace ring entry, span note and log line all come from the event table.
// Instruments are registered once in New; recording is atomic on the data
// path.
type telemetry struct {
	*obs.Events

	sessions     *obs.Gauge     // live sessions
	readServeLat *obs.Histogram // serveRead duration (disk + transmit)
	writeLat     *obs.Histogram // announce (or first data) → completion
	syncLat      *obs.Histogram // store sync latency
}

// events is the agent's event table. Every shed is also a pushback.
var (
	events         obs.EventTable
	evOpen         = events.Kind(obs.EventKind{Trace: "open", Series: "swift_agent_opens_total", Help: "Open requests accepted."})
	evOpenReject   = events.Kind(obs.EventKind{Trace: "open_reject", Series: "swift_agent_open_rejects_total", Help: "Open requests rejected."})
	evReadRequest  = events.Kind(obs.EventKind{Series: "swift_agent_read_requests_total", Help: "Read requests served."})
	evReadBytes    = events.Kind(obs.EventKind{Series: "swift_agent_read_bytes_total", Help: "Payload bytes streamed to clients."})
	evWriteBurst   = events.Kind(obs.EventKind{Series: "swift_agent_write_bursts_total", Help: "Write bursts completed."})
	evWriteBytes   = events.Kind(obs.EventKind{Series: "swift_agent_write_bytes_total", Help: "Payload bytes received and applied."})
	evDataPacket   = events.Kind(obs.EventKind{Series: "swift_agent_data_packets_total", Help: "Data packets received."})
	evResendPrompt = events.Kind(obs.EventKind{Trace: "resend_prompt", Retry: true, Series: "swift_agent_resend_requests_total", Help: "Resend prompts sent to clients."})
	evBadPacket    = events.Kind(obs.EventKind{Trace: "bad_packet", Logged: true, Series: "swift_agent_bad_packets_total", Help: "Undecodable packets dropped."})
	evEarlyData    = events.Kind(obs.EventKind{Series: "swift_agent_early_data_total", Help: "Write data packets dropped for lack of an announce."})
	evOrphanBurst  = events.Kind(obs.EventKind{Trace: "orphan_burst", Series: "swift_agent_orphan_bursts_total", Help: "Write bursts dropped because their data was never announced."})
	evIdleReap     = events.Kind(obs.EventKind{Trace: "idle_reap", Series: "swift_agent_idle_reaps_total", Help: "Sessions torn down by the idle timer."})
	evCorrupt      = events.Kind(obs.EventKind{Trace: "corrupt", Series: "swift_agent_corruptions_total", Help: "At-rest corruption errors surfaced by the store."})
	evPushback     = events.Kind(obs.EventKind{Series: "swift_agent_pushbacks_total", Help: "Explicit pushback replies sent to clients."})
	evShedDeadline = events.Kind(obs.EventKind{Trace: "shed", Fault: true, Also: evPushback, Series: "swift_agent_shed_deadline_total", Help: "Read requests shed because their propagated deadline was already spent."})
	evShedQueue    = events.Kind(obs.EventKind{Trace: "shed", Fault: true, Also: evPushback, Series: "swift_agent_shed_queue_total", Help: "Read requests shed by the bounded service queue."})
)

// newAgentTelemetry builds and registers the agent's instruments.
func newAgentTelemetry(cfg *Config) *telemetry {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &telemetry{
		Events: obs.NewEvents(reg, obs.EventConfig{Layer: "agent", Table: &events,
			Ring: obs.NewTraceRing(512), Logf: cfg.Logf, Verbose: cfg.Verbose}),
		sessions:     reg.Gauge("swift_agent_sessions", "Live file sessions.", nil),
		readServeLat: reg.Histogram("swift_agent_read_serve_seconds", "Read request service time (store fetch + transmit).", nil),
		writeLat:     reg.Histogram("swift_agent_write_burst_seconds", "Write burst completion time (first sight to ack).", nil),
		syncLat:      reg.Histogram("swift_agent_sync_seconds", "Store sync (stable-write) latency.", nil),
	}
}

// Obs returns the agent's metric registry, for export.
func (a *Agent) Obs() *obs.Registry { return a.tel.Registry() }

// Trace returns the agent's trace-event ring.
func (a *Agent) Trace() *obs.TraceRing { return a.tel.Ring() }

// syncTimed wraps a store sync with latency recording.
func (a *Agent) syncTimed(sync func() error) error {
	start := time.Now()
	err := sync()
	a.tel.syncLat.Observe(time.Since(start))
	return err
}
