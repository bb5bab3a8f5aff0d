package core

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"swift/internal/obs"
)

// TestStatsAdvance: a live transfer must surface per-operation latency
// percentiles, per-agent burst attribution and protocol counters through
// Client.Stats.
func TestStatsAdvance(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, err := c.client.Open("tele", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := randBytes(200_000, 7)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, len(data)), 0); err != nil {
		t.Fatal(err)
	}

	s := c.client.Stats()
	if s.OpenLat.Count == 0 || s.ReadLat.Count == 0 || s.WriteLat.Count == 0 {
		t.Fatalf("operation latency histograms empty: %+v", s)
	}
	if s.ReadLat.P50 <= 0 || s.ReadLat.P99 < s.ReadLat.P50 {
		t.Fatalf("read percentiles implausible: p50=%v p99=%v", s.ReadLat.P50, s.ReadLat.P99)
	}
	if s.OpenFiles != 1 {
		t.Fatalf("open files = %d, want 1", s.OpenFiles)
	}
	if s.Counters.ReadBursts == 0 || s.Counters.WriteBursts == 0 {
		t.Fatalf("protocol counters did not advance: %+v", s.Counters)
	}
	// Striping means every agent carried traffic.
	for i, as := range s.Agents {
		if as.ReadBursts == 0 || as.WriteBursts == 0 {
			t.Errorf("agent %d saw no bursts: %+v", i, as)
		}
		if as.ReadBursts > 0 && as.ReadBurstLat.Count == 0 {
			t.Errorf("agent %d: read bursts counted but no latency recorded", i)
		}
		if as.State != StateHealthy {
			t.Errorf("agent %d not healthy: %v", i, as.State)
		}
	}
	assertReconciled(t, c.client)
}

// assertReconciled checks that every event kind exported both globally
// and per agent reconciles exactly: the global counter is the sum of the
// per-agent counters and the unattributed ones.
func assertReconciled(t *testing.T, c *Client) {
	t.Helper()
	s := c.Stats()
	for _, f := range statFields {
		if f.snap == nil || f.stat == nil {
			continue
		}
		sum := c.tel.Load(f.kind, -1)
		for _, as := range s.Agents {
			sum += *f.stat(&as)
		}
		if g := *f.snap(&s.Counters); g != sum {
			t.Errorf("%s = %d, per-agent sum plus unattributed = %d", f.kind.Series, g, sum)
		}
	}
}

// TestEventTable pins each event kind's trace Kind — the strings trace
// consumers match on — and that the table fills every MetricsSnapshot
// field exactly once and no AgentStats field twice.
func TestEventTable(t *testing.T) {
	want := map[*obs.EventKind]string{
		evTimeout[reading]: "read_timeout", evTimeout[writing]: "write_timeout",
		evGiveUp[reading]: "read_giveup", evGiveUp[writing]: "write_giveup",
		evPushback[reading]: "read_pushback", evPushback[writing]: "write_pushback",
		evFailover[reading]: "read_failover", evFailover[writing]: "write_failover",
		evResend: "write_resend", evReadmit: "readmit", evReadmitFail: "readmit_fail",
		evHealth: "health", evBreaker: "breaker", evOpenFail: "open_fail",
		evCorrupt: "corrupt", evRepair: "repair", evRepairFail: "repair_fail",
		evUnrepairable: "unrepairable", evReadLost: "read_lost",
		evScrubMismatch: "scrub_mismatch", evScrubFail: "scrub_fail", evScrubReport: "scrub_report",
		evHedge: "read_hedge", evHedgeWin: "hedge_win", evBudgetDenied: "budget_denied",
		evFlushFail: "flush_fail",
	}
	fields := map[*obs.EventKind]bool{}
	for _, f := range statFields {
		fields[f.kind] = true
	}
	for _, k := range clientEvents.Kinds() {
		if (k.Series != "" || k.AgentSeries != "") && !fields[k] {
			t.Errorf("%s%s fills no Stats field", k.Series, k.AgentSeries)
		}
		if k.Trace != want[k] {
			t.Errorf("%s: trace kind %q, want %q", k.Series, k.Trace, want[k])
		}
		if k.Also != nil && (k.Also.Also != nil || k.Series != "" || k.AgentSeries != "") {
			t.Errorf("%s shares the counter of %s, which it cannot", k.Trace, k.Also.Trace)
		}
	}
	var ms MetricsSnapshot
	var as AgentStats
	for _, f := range statFields {
		if (f.kind.Series != "") != (f.snap != nil) || (f.kind.AgentSeries != "") != (f.stat != nil) {
			t.Errorf("%s: a series without its field, or a field without its series", f.kind.Trace)
		}
		if f.snap != nil {
			*f.snap(&ms)++
		}
		if f.stat != nil {
			*f.stat(&as)++
		}
	}
	v := reflect.ValueOf(ms)
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Int(); n != 1 {
			t.Errorf("MetricsSnapshot.%s is filled by %d event kinds, want 1", v.Type().Field(i).Name, n)
		}
	}
	v = reflect.ValueOf(as)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 && f.Int() > 1 {
			t.Errorf("AgentStats.%s is filled by %d event kinds, want at most 1", v.Type().Field(i).Name, f.Int())
		}
	}
}

// TestLoggedEventPrintedOnce: a logged event reaches Config.Logf exactly
// once, as its own line, with or without Verbose (whose trace sink skips
// the logged kinds).
func TestLoggedEventPrintedOnce(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		t.Run(fmt.Sprintf("verbose=%v", verbose), func(t *testing.T) {
			var mu sync.Mutex
			var lines []string
			c, err := Dial(Config{
				Host: recHost{}, Agents: []string{"a:1", "b:1", "c:1"}, BreakerThreshold: 1, Verbose: verbose,
				Logf: func(format string, args ...any) {
					mu.Lock()
					lines = append(lines, fmt.Sprintf(format, args...))
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			c.noteOverload(0, "drill")
			mu.Lock()
			printed := len(lines) // before Close: the line is printed synchronously
			mu.Unlock()
			c.Close() // drains the Verbose sink
			mu.Lock()
			defer mu.Unlock()
			if printed != 1 || len(lines) != 1 || !strings.HasPrefix(lines[0], "core: breaker agent 0: closed -> open (drill)") {
				t.Fatalf("one breaker transition logged %d lines (%d before Close), want 1: %q", len(lines), printed, lines)
			}
		})
	}
}

// TestHealthTransitionsObserved: killing an agent must surface lifecycle
// transitions in both the per-agent counters and the trace ring.
func TestHealthTransitionsObserved(t *testing.T) {
	c := newCluster(t, clusterOpts{parity: true, agents: 3})
	f, err := c.client.Open("hobs", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := randBytes(50_000, 9)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	c.agents[1].Close() // kill agent 1; parity masks it
	if _, err := f.ReadAt(make([]byte, len(data)), 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}

	s := c.client.Stats()
	if s.Agents[1].Transitions == 0 {
		t.Fatalf("agent 1 lifecycle transitions not counted: %+v", s.Agents[1])
	}
	if s.Agents[1].State == StateHealthy {
		t.Fatalf("agent 1 still healthy after being killed")
	}
	var sawHealth bool
	for _, e := range c.client.Trace().Last(1024) {
		if e.Kind == "health" && e.Agent == 1 {
			sawHealth = true
			break
		}
	}
	if !sawHealth {
		t.Fatal("no health trace event for agent 1")
	}
}

// TestSharedRegistryExport: a client wired to an external registry must
// expose its series through the Prometheus exporter, and a 3+2 client's
// metric families — every HELP and TYPE line and every series' label set
// — must match testdata/registry_3p2.golden exactly (values aside).
func TestSharedRegistryExport(t *testing.T) {
	reg := obs.NewRegistry()
	if len(reg.Names()) != 0 {
		t.Fatalf("fresh registry not empty")
	}

	c := newClusterWithObs(t, reg, clusterOpts{agents: 5, parityShards: 2})
	f, err := c.client.Open("exp", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(randBytes(20_000, 3), 0); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"swift_client_write_seconds",
		"swift_client_agent_write_bursts_total",
		`agent="0"`,
		"swift_client_data_packets_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}

	matchFamilies(t, reg, "testdata/registry_3p2.golden")
}

// families renders reg's metric families: HELP and TYPE lines whole,
// series lines cut at their value, de-duplicated and sorted so
// registration order is free.
func families(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var shape []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		shape = append(shape, line)
	}
	slices.Sort(shape)
	return strings.Join(slices.Compact(shape), "\n") + "\n"
}

// matchFamilies compares reg's families with the golden file, first
// rewriting it from them when -update is set.
func matchFamilies(t *testing.T, reg *obs.Registry, golden string) {
	t.Helper()
	got := families(t, reg)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric families differ from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// newClusterWithObs is newCluster with an external metric registry.
func newClusterWithObs(t *testing.T, reg *obs.Registry, o clusterOpts) *cluster {
	t.Helper()
	c := newCluster(t, o)
	// Re-dial the client against the same agents with the registry wired.
	addrs := make([]string, len(c.agents))
	for i, a := range c.agents {
		addrs[i] = a.Addr()
	}
	h := c.client.cfg.Host
	c.client.Close()
	cl, err := Dial(Config{
		Host:         h,
		Agents:       addrs,
		Unit:         4096,
		ParityShards: o.parityShards,
		RetryTimeout: c.client.cfg.RetryTimeout,
		MaxRetries:   c.client.cfg.MaxRetries,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.client = cl
	t.Cleanup(func() { cl.Close() })
	return c
}

// TestScrapeNeverWaitsOnClientLock: rendering the registry takes no
// client lock, so a scrape is not held up while a control RPC holds c.mu
// through its retries — the moment the lifecycle gauge matters most.
func TestScrapeNeverWaitsOnClientLock(t *testing.T) {
	c, err := Dial(Config{Host: recHost{}, Agents: []string{"a:1", "b:1", "c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MarkDown(1, true)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(chan string, 1)
	go func() {
		var b bytes.Buffer
		c.Obs().WritePrometheus(&b)
		out <- b.String()
	}()
	select {
	case got := <-out:
		if !strings.Contains(got, `swift_client_agent_state{agent="1"} 2`) {
			t.Fatalf("agent 1 not exported down:\n%s", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scrape blocked on the client lock")
	}
}
