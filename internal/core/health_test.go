package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"swift/internal/agent"
	"swift/internal/transport"
)

// restartAgent brings agent i back on its original host and store, as the
// fault-injection harnesses do.
func restartAgent(t *testing.T, c *cluster, i int) {
	t.Helper()
	fresh, err := agent.New(c.hosts[i], c.stores[i], agent.Config{
		ResendCheck: 5 * time.Millisecond,
		ResendAfter: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("restart agent %d: %v", i, err)
	}
	t.Cleanup(func() { fresh.Close() })
	c.agents[i] = fresh
}

// TestLifecycleStrikes: attributable errors walk an agent through
// healthy -> suspect -> down; re-admission resets the record.
func TestLifecycleStrikes(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3})
	cl := c.client

	h := cl.Health()
	if len(h) != 3 {
		t.Fatalf("health has %d entries, want 3", len(h))
	}
	for i, ah := range h {
		if ah.State != StateHealthy || ah.Failures != 0 || ah.LastErr != "" {
			t.Fatalf("agent %d not pristine: %+v", i, ah)
		}
	}

	cl.noteFailure(1, ErrRetriesSpent)
	if h := cl.Health()[1]; h.State != StateSuspect || h.Failures != 1 {
		t.Fatalf("after first strike: %+v", h)
	}
	cl.noteFailure(1, ErrAgentDown)
	if h := cl.Health()[1]; h.State != StateDown || h.Failures != 2 {
		t.Fatalf("after second strike: %+v", h)
	}
	if h := cl.Health()[1]; h.LastErr == "" {
		t.Fatal("last error not recorded")
	}
	// The other agents are untouched.
	if h := cl.Health()[0]; h.State != StateHealthy {
		t.Fatalf("agent 0 collateral damage: %+v", h)
	}

	// A probe round finds the agent answering (it never actually died)
	// and re-admits it, clearing the record.
	cl.ProbeOnce()
	if h := cl.Health()[1]; h.State != StateHealthy || h.Failures != 0 || h.LastErr != "" {
		t.Fatalf("after re-admission: %+v", h)
	}
	if cl.MetricsSnapshot().Readmissions == 0 {
		t.Fatal("re-admission not counted")
	}
}

// TestProbeOnceDemotesSilentAgents: with no traffic flowing, probe rounds
// alone demote a dead agent healthy -> suspect -> down.
func TestProbeOnceDemotesSilentAgents(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3})
	c.agents[2].Close()

	c.client.ProbeOnce()
	if h := c.client.Health()[2]; h.State != StateSuspect {
		t.Fatalf("after one silent round: %v", h.State)
	}
	c.client.ProbeOnce()
	if h := c.client.Health()[2]; h.State != StateDown {
		t.Fatalf("after two silent rounds: %v", h.State)
	}
	if h := c.client.Health()[0]; h.State != StateHealthy {
		t.Fatalf("live agent demoted: %v", h.State)
	}

	// Restart: the next round re-admits it with no caller intervention.
	restartAgent(t, c, 2)
	c.client.ProbeOnce()
	if h := c.client.Health()[2]; h.State != StateHealthy {
		t.Fatalf("restarted agent not re-admitted: %+v", h)
	}
}

// TestMonitorAutoReadmitWithRebuild is the full recovery story: an agent
// crashes mid-life, the data path fails over and marks it, writes proceed
// degraded, the agent restarts, and the background monitor re-admits it —
// reopening the file's session and rebuilding the stale fragment from
// parity — with no caller intervention. A scrub then proves the rebuilt
// units are consistent with the degraded writes.
func TestMonitorAutoReadmitWithRebuild(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parity: true, unit: 2048})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := randBytes(60_000, 41)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// Crash agent 2 and touch it: the read fails over (served degraded)
	// and the lifecycle notes the attributable error.
	c.agents[2].Close()
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("degraded read mismatch")
	}
	if h := c.client.Health()[2]; h.State == StateHealthy {
		t.Fatal("failover did not mark the agent")
	}

	// Write new content while the agent is out: its units go stale.
	data = randBytes(60_000, 42)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("degraded write: %v", err)
	}

	// Restart the agent and let the monitor find it.
	restartAgent(t, c, 2)
	c.client.StartMonitor(MonitorConfig{
		Interval: 15 * time.Millisecond,
		Rebuild:  true,
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := c.client.Health()[2]; h.State == StateHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent 2 never re-admitted: %+v", c.client.Health()[2])
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.client.StopMonitor()

	// The rebuilt fragment must be consistent with the degraded writes:
	// a scrub finds nothing, and the healthy-path read returns the new
	// content.
	rep, err := f.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Clean() || rep.Rows == 0 {
		t.Fatalf("rows inconsistent after auto-rebuild: %s", rep)
	}
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("post-readmit read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("post-readmit read mismatch")
	}
}

// TestMonitorStartStopIdempotent: the monitor can be started once, start
// is a no-op while running, and stop is safe to repeat.
func TestMonitorStartStopIdempotent(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	c.client.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond})
	c.client.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond})
	time.Sleep(30 * time.Millisecond)
	c.client.StopMonitor()
	c.client.StopMonitor()
	for i, h := range c.client.Health() {
		if h.State != StateHealthy {
			t.Fatalf("agent %d demoted by monitor on a healthy cluster: %+v", i, h)
		}
	}
	if c.client.MetricsSnapshot().Probes == 0 {
		t.Fatal("monitor sent no probes")
	}
}

// watchHost counts the datagrams a client sends to one agent's host
// since watch was called, and signals the first.
type watchHost struct {
	transport.Host
	agent string
	mu    sync.Mutex
	sent  int
	first chan struct{}
}

func (h *watchHost) watch() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sent, h.first = 0, make(chan struct{})
	return h.first
}

func (h *watchHost) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sent
}

func (h *watchHost) Listen(port string) (transport.PacketConn, error) {
	pc, err := h.Host.Listen(port)
	return &watchConn{PacketConn: pc, h: h}, err
}

type watchConn struct {
	transport.PacketConn
	h *watchHost
}

func (c *watchConn) WriteTo(p []byte, addr string) error {
	if host, _, _ := transport.SplitAddr(addr); host == c.h.agent {
		c.h.mu.Lock()
		if c.h.sent++; c.h.sent == 1 && c.h.first != nil {
			close(c.h.first)
		}
		c.h.mu.Unlock()
	}
	return c.PacketConn.WriteTo(p, addr)
}

// TestDownVerdictReachesOpenFiles: an agent that crashes under an open
// file stalls a read for the whole retry budget — here a minute a
// request — until the lifecycle judges it Down. The verdict wakes that
// read at once to finish around the agent, and the next read sends the
// agent nothing.
func TestDownVerdictReachesOpenFiles(t *testing.T) {
	const dead = 2
	watch := &watchHost{agent: agentName(dead)}
	c := newCluster(t, clusterOpts{
		agents: 4, parity: true, retryTimeout: time.Minute,
		clientHost: func(h transport.Host) transport.Host { watch.Host = h; return watch },
	})
	f, data := writeObj(t, c, "obj", 128<<10, 17)
	defer f.Close()
	c.agents[dead].Close()
	read := func() error {
		out := make([]byte, len(data))
		if _, err := f.ReadAt(out, 0); err != nil {
			return err
		}
		if !bytes.Equal(out, data) {
			return errors.New("read returned wrong bytes")
		}
		return nil
	}
	asked := watch.watch()
	stalled := make(chan error, 1)
	go func() { stalled <- read() }()
	<-asked
	for range 2 { // the lifecycle's strikes: suspect, then down
		c.client.noteFailure(dead, ErrRetriesSpent)
	}
	if err := <-stalled; err != nil {
		t.Fatalf("read stalled on the agent when it was judged down: %v", err)
	}
	watch.watch()
	if err := read(); err != nil {
		t.Fatalf("read after the verdict: %v", err)
	}
	if n := watch.count(); n != 0 {
		t.Errorf("the read after the verdict sent %d datagrams to the down agent, want 0", n)
	}
}
