// Package agent seeds metric-naming violations under the agent layer's
// prefix rules, next to clean registrations mirroring the real tree.
package agent

import "fixture/internal/obs"

// Register seeds one violation per rule.
func Register(reg *obs.Registry, dynamic string) {
	reg.Counter("swift_client_read_bursts_total", "Wrong layer.", nil)            // want `lacks the agent layer prefix`
	reg.Counter("swift_agent_Bad-Name_total", "Bad characters.", nil)             // want `does not match`
	reg.Counter("swift_agent_reads", "Counter without _total.", nil)              // want `must end in "_total"`
	reg.Histogram("swift_agent_read_latency", "Histogram without _seconds.", nil) // want `must end in "_seconds"`
	reg.Gauge("swift_agent_sessions", "", nil)                                    // want `is empty`
	reg.Counter(dynamic, "Non-literal name.", nil)                                // want `non-literal name`
	reg.Counter("swift_agent_opens_total", "Open requests.", nil)
	reg.Counter("swift_agent_opens_total", "Registered again.", nil) // want `duplicate registration`
}

// RegisterClean mirrors the real tree's idioms: labeled instruments, a
// computed gauge, and a justified table-driven registration.
func RegisterClean(reg *obs.Registry, rows []struct{ Name, Help string }) {
	l := obs.Labels{"agent": "0"}
	reg.Counter("swift_agent_read_requests_total", "Read requests served.", l)
	reg.Histogram("swift_agent_read_serve_seconds", "Read service time.", l)
	reg.GaugeFunc("swift_agent_queue_depth", "Queue depth.", nil, func() float64 { return 0 })
	for _, row := range rows {
		//lint:allow metricname fixture exception: the table rows above hold literal names
		reg.CounterFunc(row.Name, row.Help, nil, func() float64 { return 0 })
	}
}

// events seeds event-table violations next to a clean row: each row's
// series is vetted as the counter obs.NewEvents registers from it.
var events = []obs.EventKind{
	{Trace: "open", Series: "swift_agent_event_opens_total", Help: "Opens."},
	{Series: "swift_client_event_reads_total", Help: "Wrong layer."},     // want `lacks the agent layer prefix`
	{Series: "swift_agent_event_reads", Help: "Counter without _total."}, // want `must end in "_total"`
	{Series: "swift_agent_event_writes_total"},                           // want `help for "swift_agent_event_writes_total" must be a non-empty string literal`
	{AgentSeries: "swift_agent_event_peers_total", AgentHelp: ""},        // want `is empty`
	{Series: "swift_agent_event_opens_total", Help: "Again."},            // want `duplicate registration`
}
