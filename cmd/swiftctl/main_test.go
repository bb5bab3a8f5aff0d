package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"swift"
	"swift/internal/agent"
	"swift/internal/mediator"
	"swift/internal/store"
	"swift/internal/transport/memnet"
)

// TestPrintStatsOverloadIsPerInterval: with -watch every counter line,
// the overload line included, prints what happened since the previous
// snapshot, not the totals since Dial. The budget fill is a level and
// prints as is.
func TestPrintStatsOverloadIsPerInterval(t *testing.T) {
	first := swift.Stats{Counters: swift.MetricsSnapshot{
		ReadBursts: 100, Pushbacks: 7, Hedges: 4, HedgeWins: 3, BudgetDenials: 2, BreakerTrips: 1,
	}}
	second := swift.Stats{
		Counters: swift.MetricsSnapshot{
			ReadBursts: 150, Pushbacks: 10, Hedges: 9, HedgeWins: 5, BudgetDenials: 2, BreakerTrips: 2,
		},
		BudgetFill: 0.75,
	}
	var out strings.Builder
	printStats(&out, second, first.Counters, time.Second)

	const want = "overload: pushbacks=3 hedges=5 (wins 2) budget_denials=0 breaker_trips=1 budget_fill=75%"
	var got string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "overload:") {
			got = line
		}
	}
	if got != want {
		t.Fatalf("overload line\n got %q\nwant %q\nfull output:\n%s", got, want, out.String())
	}
	if !strings.Contains(out.String(), "bursts: read=50/1s") {
		t.Fatalf("burst line is not the interval delta:\n%s", out.String())
	}
}

// TestOpenSessionOverBuiltinMediator drives swiftctl's one session
// set-up over a leased in-process mediator, the built-in policy: the
// plan's agents and unit reach the config, the client monitor's
// heartbeat keeps the lease past its TTL, and closing the session
// releases the reservation.
func TestOpenSessionOverBuiltinMediator(t *testing.T) {
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("lab", memnet.SegmentConfig{BandwidthBps: 1e10, FrameOverhead: 46})
	var infos []mediator.AgentInfo
	for i := 0; i < 4; i++ {
		a, err := agent.New(n.MustHost(fmt.Sprintf("agent%d", i), memnet.HostConfig{}, seg), store.NewMem(), agent.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		infos = append(infos, mediator.AgentInfo{Addr: a.Addr(), Rate: 400 * 1024})
	}
	const ttl = 600 * time.Millisecond
	med, err := mediator.New(mediator.Config{
		Agents:   infos,
		Nets:     []mediator.NetInfo{{Name: "lab", Capacity: 1e12}},
		LeaseTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	cfg := swift.Config{Host: n.MustHost("client", memnet.HostConfig{}, seg), Unit: 32 * 1024}
	broker, err := openSession(&cfg, []swift.MediatorEndpoint{med}, 800, ttl)
	if err != nil {
		t.Fatal(err)
	}
	plan := broker.Record().Plan
	if len(plan.Addrs) != 2 || !slices.Equal(cfg.Agents, plan.Addrs) || cfg.Unit != plan.Unit || cfg.Unit == 32*1024 {
		t.Fatalf("config agents %v unit %d; plan agents %v unit %d", cfg.Agents, cfg.Unit, plan.Addrs, plan.Unit)
	}
	if cfg.Monitor.Interval != ttl/3 || cfg.Monitor.Heartbeat == nil || cfg.CacheSync == nil {
		t.Fatalf("monitor %+v, cache sync set %v: the session is not wired into the client", cfg.Monitor, cfg.CacheSync != nil)
	}

	fs, err := swift.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * ttl)
	if got := med.Sessions(); got != 1 {
		t.Fatalf("sessions = %d after two lease TTLs: the monitor did not renew the lease", got)
	}
	fs.Close()
	if err := broker.CloseSession(); err != nil {
		t.Fatal(err)
	}
	for i := range infos {
		if load := med.AgentLoad(i); load != 0 {
			t.Fatalf("agent %d still reserves %.0f B/s after the session closed", i, load)
		}
	}
}
