package core

import (
	"slices"
	"testing"
	"time"

	"swift/internal/obs"
	"swift/internal/testutil/leakcheck"
	"swift/internal/transport/memnet"
)

// TestDialStartsMonitor: Config.Monitor with an Interval starts the
// health monitor at Dial, with no StartMonitor call, and Close stops it
// without leaving a goroutine behind.
func TestDialStartsMonitor(t *testing.T) {
	leakcheck.T(t)
	c := newCluster(t, clusterOpts{})
	addrs := make([]string, len(c.agents))
	for i, a := range c.agents {
		addrs[i] = a.Addr()
	}
	cl, err := Dial(Config{
		Host:         c.net.MustHost("monitored", memnet.HostConfig{}, c.seg),
		Agents:       addrs,
		RetryTimeout: 30 * time.Millisecond,
		Monitor:      MonitorConfig{Interval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cl.MetricsSnapshot().Probes < int64(2*len(addrs)) {
		if time.Now().After(deadline) {
			cl.Close()
			t.Fatalf("monitor sent %d probes in 5s, want two rounds", cl.MetricsSnapshot().Probes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.Close() // leakcheck fails the test if the monitor outlives it
}

// TestDialBuildsTracerFromRate: with no Tracer, a TraceRate above zero
// gets a tracer registered in the client's registry; rate zero gets none,
// and an explicit Tracer wins over the rate.
func TestDialBuildsTracerFromRate(t *testing.T) {
	dial := func(cfg Config) *Client {
		t.Helper()
		cfg.Host, cfg.Agents = recHost{}, []string{"a:1"}
		cl, err := Dial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	reg := obs.NewRegistry()
	if cl := dial(Config{TraceRate: 1, Obs: reg}); cl.Tracer() == nil {
		t.Fatal("TraceRate 1 built no tracer")
	}
	if !slices.Contains(reg.Names(), "swift_trace_spans_started_total") {
		t.Fatal("the tracer built from TraceRate is not registered in Obs")
	}
	if cl := dial(Config{}); cl.Tracer() != nil {
		t.Fatal("TraceRate 0 built a tracer")
	}
	shared := obs.NewTracer(obs.TracerConfig{Rate: 1})
	if cl := dial(Config{TraceRate: 0.5, Tracer: shared}); cl.Tracer() != shared {
		t.Fatal("an explicit Tracer was replaced")
	}
}

// TestDataShardsMismatchRejected: a DataShards assertion that disagrees
// with the agent list fails Dial even when the layout itself is valid.
func TestDataShardsMismatchRejected(t *testing.T) {
	agents := []string{"a:1", "b:1", "c:1", "d:1"}
	if _, err := Dial(Config{Host: recHost{}, Agents: agents, Parity: true, DataShards: 2}); err == nil {
		t.Fatal("2 data + 1 parity over 4 agents accepted")
	}
	cl, err := Dial(Config{Host: recHost{}, Agents: agents, Parity: true, DataShards: 3})
	if err != nil {
		t.Fatalf("3 data + 1 parity over 4 agents: %v", err)
	}
	cl.Close()
}

// TestFormerKnobConstants pins what were once seven Config knobs that
// no caller set, at the defaults they had: the backoff cap, the hedge
// delay, the retry budget, the breaker cooldown, the read-ahead streams
// and the probe retries.
func TestFormerKnobConstants(t *testing.T) {
	const rto = 10 * time.Millisecond
	cl, err := Dial(Config{
		Host: recHost{}, Agents: []string{"a:1", "b:1", "c:1"}, Parity: true,
		RetryTimeout: rto, ReadAhead: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if got := cl.bo.Max(); got != 8*rto {
		t.Errorf("backoff cap = %v, want 8×RetryTimeout = %v", got, 8*rto)
	}

	if got := cl.hedgeDelay(0); got != rto {
		t.Errorf("cold hedge delay = %v, want RetryTimeout %v", got, rto)
	}
	h := cl.tel.agents[0].burstLat[reading]
	for i := 0; i < 100; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if got, want := cl.hedgeDelay(0), 2*h.Percentile(99); got != want || got <= rto {
		t.Errorf("hedge delay = %v, want 2×p99 = %v", got, want)
	}

	if cl.budget.limit != 1000 || cl.budget.ratio != 0.5 {
		t.Errorf("retry budget = %v tokens refilled by %v, want 1000 and 0.5", cl.budget.limit, cl.budget.ratio)
	}

	before := time.Now()
	for i := 0; i < cl.cfg.BreakerThreshold; i++ {
		cl.noteOverload(0, "test strike")
	}
	after := time.Now()
	b := &cl.breakers[0]
	b.mu.Lock()
	state, until := b.state, b.until
	b.mu.Unlock()
	if state != BreakerOpen || until.Before(before.Add(2*time.Second)) || until.After(after.Add(2*time.Second)) {
		t.Errorf("breaker %v until %v, want open for 2s from %v", state, until, before)
	}

	if got := cl.cache.Streams(); got != 2 {
		t.Errorf("read-ahead streams = %d, want 2", got)
	}
	if probeRetries != 2 {
		t.Errorf("probe retries = %d, want 2", probeRetries)
	}
}
