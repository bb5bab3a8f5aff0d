package core

import (
	"errors"
	"sync"
	"time"
)

// This file implements the client's automatic failure-domain lifecycle.
//
// Each storage agent moves through three states:
//
//	Healthy ──(attributable error)──▶ Suspect ──(second strike or
//	    ▲                                          failed probe)──▶ Down
//	    └──────────(probe succeeds; sessions reopened, fragment
//	                rebuilt under parity)───────────────────────────┘
//
// Attributable errors (ErrRetriesSpent, ErrAgentDown from a specific
// agent) feed the lifecycle with no caller intervention: the data path
// reports them via noteFailure as it fails over. A background health
// monitor (StartMonitor) probes non-healthy agents, and on recovery
// re-opens every open file's session on that agent — handles die with the
// agent process, so fresh ones are negotiated — optionally rebuilds the
// agent's fragments from parity, and returns the agent to service.

// AgentState is one agent's position in the failure-domain lifecycle.
type AgentState int

// Lifecycle states.
const (
	// StateHealthy: the agent is answering and carries traffic.
	StateHealthy AgentState = iota
	// StateSuspect: an attributable error was observed; the data path
	// has failed over and the monitor is probing for a verdict.
	StateSuspect
	// StateDown: repeated strikes or a failed probe confirmed the agent
	// unreachable. Control-plane operations skip it; parity masks it.
	StateDown
)

var stateNames = [...]string{"healthy", "suspect", "down"}

func (s AgentState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

// agentHealth is the client's internal per-agent lifecycle record.
type agentHealth struct {
	state    AgentState
	since    time.Time // when state last changed
	failures int64     // attributable failures observed since last healthy
	lastErr  string    // most recent attributable error
}

// AgentHealth is one agent's lifecycle snapshot.
type AgentHealth struct {
	Addr     string
	State    AgentState
	Since    time.Time // when the state was entered
	Failures int64     // attributable failures since last healthy
	LastErr  string    // most recent attributable error ("" if none)
}

// Health returns every agent's lifecycle snapshot, in agent order.
func (c *Client) Health() []AgentHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]AgentHealth, len(c.health))
	for i, h := range c.health {
		out[i] = AgentHealth{
			Addr:     c.cfg.Agents[i],
			State:    h.state,
			Since:    h.since,
			Failures: h.failures,
			LastErr:  h.lastErr,
		}
	}
	return out
}

// setStateLocked transitions agent i; c.mu must be held.
func (c *Client) setStateLocked(i int, s AgentState, why string) {
	h := &c.health[i]
	if h.state == s {
		return
	}
	c.tel.Note(evHealth, i, nil, "%v -> %v (%s)", h.state, s, why)
	c.tel.agents[i].state.Set(int64(s))
	h.state = s
	h.since = time.Now()
	if s == StateHealthy {
		h.failures = 0
		h.lastErr = ""
	}
}

// noteFailure records an attributable error against agent i: a healthy
// agent becomes suspect; a suspect agent's second strike takes it down.
func (c *Client) noteFailure(i int, err error) {
	var stalled []*agentSession
	c.mu.Lock()
	h := &c.health[i]
	h.failures++
	h.lastErr = err.Error()
	switch h.state {
	case StateHealthy:
		c.setStateLocked(i, StateSuspect, "attributable error")
	case StateSuspect:
		c.setStateLocked(i, StateDown, "repeated attributable errors")
		for f := range c.files {
			if s := f.sessions[i]; s != nil {
				s.down.Store(true)
				stalled = append(stalled, s)
			}
		}
	}
	c.mu.Unlock()
	// The Down verdict wakes an op stalled on the agent, and the next op
	// plans around it.
	for _, s := range stalled {
		s.conn.Close()
	}
}

// MonitorConfig tunes the background health monitor.
type MonitorConfig struct {
	// Interval is the probe period (default 500ms).
	Interval time.Duration
	// Rebuild, with parity enabled, reconstructs a re-admitted agent's
	// fragments from the survivors before the agent serves reads again,
	// so units written degraded while it was out are never served stale.
	Rebuild bool
	// ScrubInterval, when > 0, runs a background scrub-and-repair pass
	// over every open file at this period (see Client.ScrubOnce). Zero
	// disables background scrubbing.
	ScrubInterval time.Duration
	// Heartbeat, when non-nil, is called once per probe round — the hook
	// that renews a mediator session lease (MediatorBroker.Heartbeat).
	Heartbeat func()
}

// probeRetries gives each health probe about 2×RetryTimeout.
const probeRetries = 2

var errProbeUnanswered = errors.New("health probe unanswered")

// StartMonitor launches the background health monitor: every Interval it
// probes every agent, demotes silent ones (healthy→suspect→down) even
// when no traffic is flowing, and re-admits recovered ones — reopening
// per-file sessions and, with Rebuild set, reconstructing their fragments
// first. Starting a running monitor is a no-op. Stop with StopMonitor or
// Client.Close.
func (c *Client) StartMonitor(mc MonitorConfig) {
	if mc.Interval == 0 {
		mc.Interval = 500 * time.Millisecond
	}
	c.mu.Lock()
	if c.monStop != nil {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.monCfg = mc
	c.monStop = stop
	c.monDone = done
	c.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(mc.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if mc.Heartbeat != nil {
					mc.Heartbeat()
				}
				// Cache coherence rides the heartbeat cadence: declare
				// what we cache and wrote, drop what went stale.
				c.CoherenceSync()
				c.ProbeOnce()
			}
		}
	}()
	if mc.ScrubInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(mc.ScrubInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					rep := c.ScrubOnce()
					if !rep.Clean() {
						c.tel.Note(evScrubReport, -1, nil, "%s", rep)
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
}

// StopMonitor stops the background health monitor, if running, and waits
// for its current round to finish.
func (c *Client) StopMonitor() {
	c.mu.Lock()
	stop, done := c.monStop, c.monDone
	c.monStop, c.monDone = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ProbeOnce runs one synchronous health round: it pings every agent
// concurrently, applies lifecycle transitions, re-admits recovered
// agents, and returns the resulting snapshot. The monitor calls it on a
// timer; swiftctl's health command calls it directly.
func (c *Client) ProbeOnce() []AgentHealth {
	c.mu.Lock()
	rebuild := c.monCfg.Rebuild
	c.mu.Unlock()

	for i, st := range c.Ping() {
		switch {
		case !st.Alive:
			c.noteFailure(i, errProbeUnanswered)
		case c.agentState(i) != StateHealthy:
			c.readmit(i, rebuild)
		}
	}
	return c.Health()
}

// readmit returns a recovered agent to service: every registered open
// file re-opens its session on the agent (the old handle died with the
// agent process) and, when rebuild is set and parity is on, rebuilds the
// agent's fragment from the survivors before the session becomes visible.
// Only when every file succeeds is the agent marked healthy; otherwise it
// stays in its current state and the next round retries.
func (c *Client) readmit(i int, rebuild bool) {
	for _, f := range c.openFiles() {
		if err := f.readmit(i, rebuild); err != nil {
			c.tel.Note(evReadmitFail, i, nil, "%s: %v", f.Name(), err)
			return
		}
	}
	c.mu.Lock()
	c.setStateLocked(i, StateHealthy, "probe answered; sessions reopened")
	c.mu.Unlock()
	c.tel.Note(evReadmit, i, nil, "agent returned to service (rebuild=%v)", rebuild)
}
