package proc

import (
	"os"
	"strings"
	"testing"
)

// swiftdLog is what swiftd logs on startup with all three roles on.
const swiftdLog = `swiftd: 2026/10/18 05:40:00 storage agent serving on 127.0.0.1:41234 (store=memory sync=false integrity=false)
swiftd: 2026/10/18 05:40:00 mediator replica "med-a" serving on 127.0.0.1:41235 (agents=1 peers=2 lease=5s)
swiftd: 2026/10/18 05:40:00 metrics on http://127.0.0.1:41236/metrics (trace at /trace, spans at /trace/ops, pprof at /debug/pprof)
`

func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  string
		want Addrs
	}{
		{"all roles", swiftdLog, Addrs{Agent: "127.0.0.1:41234", Mediator: "127.0.0.1:41235", Metrics: "127.0.0.1:41236"}},
		{"agent only", strings.SplitAfter(swiftdLog, "\n")[0], Addrs{Agent: "127.0.0.1:41234"}},
		{"mediator only", strings.SplitAfter(swiftdLog, "\n")[1], Addrs{Mediator: "127.0.0.1:41235"}},
		{"swift-load", "metrics on http://127.0.0.1:9090/metrics (trace at /trace, pprof at /debug/pprof)\n", Addrs{Metrics: "127.0.0.1:9090"}},
		{"nothing yet", "swiftd: 2026/10/18 05:40:00 open store: permission denied\n", Addrs{}},
	} {
		if got := ParseAddrs(tc.log); got != tc.want {
			t.Errorf("%s: ParseAddrs = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if got := (Addrs{Metrics: "127.0.0.1:41236"}).MetricsURL(); got != "http://127.0.0.1:41236" {
		t.Errorf("MetricsURL = %q", got)
	}
}

// TestStartupLinesMatchDaemon pins the canned lines above to the
// format strings swiftd and swift-load print them with, so a reworded
// log line fails here rather than as a readiness timeout.
func TestStartupLinesMatchDaemon(t *testing.T) {
	for file, formats := range map[string][]string{
		"../../../cmd/swiftd/main.go": {
			`"storage agent serving on %s (`,
			`"mediator replica %q serving on %s (`,
			`"metrics on http://%s/metrics (`,
		},
		"../../../cmd/swift-load/main.go": {`"metrics on http://%s/metrics (`},
	} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range formats {
			if !strings.Contains(string(src), f) {
				t.Errorf("%s no longer prints %s", file, f)
			}
		}
	}
}

func TestMetric(t *testing.T) {
	const text = `# HELP swift_agent_shed_queue_total Read requests shed by the bounded service queue.
# TYPE swift_agent_shed_queue_total counter
swift_agent_shed_queue_total{agent="a"} 3
swift_agent_shed_queue_total{agent="b",note="x} y"} 4
swift_agent_sessions 2
swift_agent_sessions_peak 9
swift_client_read_seconds_count 17
`
	for _, tc := range []struct {
		name string
		want float64
		ok   bool
	}{
		{"swift_agent_shed_queue_total", 7, true},
		{"swift_agent_sessions", 2, true},
		{"swift_client_read_seconds_count", 17, true},
		{"swift_client_read_seconds", 0, false},
		{"swift_agent_pushbacks_total", 0, false},
	} {
		if got, ok := Metric(text, tc.name); got != tc.want || ok != tc.ok {
			t.Errorf("Metric(%s) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}
