package core

// This file implements the client's half of cooperative overload
// control:
//
//   - a token-bucket retry budget shared by every operation, so retries
//     and hedges stay a bounded fraction of fresh traffic and a brown-out
//     cannot be amplified into a retry storm;
//   - a per-agent circuit breaker fed by pushback replies and retry
//     give-ups, so a shedding or silent agent is routed around (through
//     parity reconstruction) instead of being offered more work;
//   - hedged reads: a read burst that stalls past a p99-derived delay is
//     abandoned and its extents reconstructed from the other agents'
//     shards, bounded by the retry budget.
//
// Pushback is deliberately kept out of the failure-domain lifecycle
// (healthy → suspect → down): an overloaded agent is healthy, and taking
// it down would convert a transient brown-out into a capacity loss.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Overload sentinels.
var (
	// ErrDeadline: the operation's deadline budget was spent (locally or
	// reported by an agent) before the operation completed. Never fed to
	// the failure-domain lifecycle.
	ErrDeadline = errors.New("core: operation deadline exceeded")
	// ErrAgentBusy: an agent refused work with explicit pushback and the
	// operation could not be completed around it. Backpressure, not
	// failure.
	ErrAgentBusy = errors.New("core: agent shedding load")
	// ErrRetryBudget: the shared retry budget is exhausted; the retry or
	// hedge was denied. Fresh operations are unaffected.
	ErrRetryBudget = errors.New("core: retry budget exhausted")
)

// errHedged is the internal signal that a read burst was abandoned at
// the hedge delay; the caller reconstructs the extents from parity.
var errHedged = errors.New("core: read burst hedged")

// The retry budget holds retryBudgetCap tokens and each fresh operation
// deposits retryBudgetRatio of one, so sustained retries stay under half
// of fresh traffic. A tripped breaker stays open for breakerCooldown; a
// read burst hedges after hedgeMultiplier × its agent's p99.
const (
	retryBudgetCap   = 1000
	retryBudgetRatio = 0.5
	breakerCooldown  = 2 * time.Second
	hedgeMultiplier  = 2
)

// tokenBucket is the shared retry budget: fresh operations deposit
// fractional tokens, retries and hedges spend whole ones. With ratio r,
// sustained retry traffic is capped at r times fresh traffic; the cap
// bounds the burst a long quiet period can accumulate.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64 // guarded by mu
	limit  float64
	ratio  float64
}

// newTokenBucket returns a bucket that starts full, so a fault burst
// early in a client's life is not penalized.
func newTokenBucket(limit, ratio float64) *tokenBucket {
	return &tokenBucket{tokens: limit, limit: limit, ratio: ratio}
}

// deposit credits one fresh operation.
func (b *tokenBucket) deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.limit {
		b.tokens = b.limit
	}
	b.mu.Unlock()
}

// spend consumes one retry token, reporting whether the retry may
// proceed.
func (b *tokenBucket) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// fill reports the bucket's fill fraction in [0, 1].
func (b *tokenBucket) fill() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit <= 0 {
		return 0
	}
	return b.tokens / b.limit
}

// BreakerState is one agent's circuit-breaker position.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed: traffic flows normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive pushbacks/give-ups tripped the breaker;
	// the stripe layer reconstructs around the agent until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; one trial burst probes the
	// agent. Success closes the breaker, another strike re-opens it.
	BreakerHalfOpen
)

var breakerNames = [...]string{"closed", "open", "half-open"}

func (s BreakerState) String() string {
	if int(s) < len(breakerNames) {
		return breakerNames[s]
	}
	return "breaker(?)"
}

// breaker is one agent's circuit breaker. Methods take the current time
// explicitly so the state machine is testable with a scripted clock.
type breaker struct {
	mu      sync.Mutex
	state   BreakerState // guarded by mu
	strikes int          // consecutive strikes while closed; guarded by mu
	until   time.Time    // open-state cooldown expiry; guarded by mu
}

// allow reports whether the agent may be offered work at time now, and
// transitions open → half-open once the cooldown has elapsed. Half-open
// admits trial traffic; the first signal decides (success closes,
// another strike re-opens).
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		return true
	default: // half-open
		return true
	}
}

// strike records a pushback or retry give-up at time now, reporting
// whether the breaker transitioned (and from/to what, for telemetry).
func (b *breaker) strike(now time.Time, threshold int, cooldown time.Duration) (from, to BreakerState, changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.strikes++
		if b.strikes < threshold {
			return BreakerClosed, BreakerClosed, false
		}
		b.state = BreakerOpen
		b.until = now.Add(cooldown)
		b.strikes = 0
		return BreakerClosed, BreakerOpen, true
	case BreakerHalfOpen:
		// The trial failed: straight back to open for another cooldown.
		b.state = BreakerOpen
		b.until = now.Add(cooldown)
		return BreakerHalfOpen, BreakerOpen, true
	default: // already open
		return BreakerOpen, BreakerOpen, false
	}
}

// success records a completed burst, closing a half-open breaker and
// clearing closed-state strikes.
func (b *breaker) success() (from, to BreakerState, changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.strikes = 0
		return BreakerHalfOpen, BreakerClosed, true
	}
	b.strikes = 0
	return b.state, b.state, false
}

// current reports the breaker's state without side effects.
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerAllow reports whether agent i may be offered work now; it is
// the stripe layer's view of the breaker (open = reconstruct around).
func (c *Client) breakerAllow(i int) bool {
	if i < 0 || i >= len(c.breakers) {
		return true
	}
	return c.breakers[i].allow(time.Now())
}

// BreakerStates snapshots every agent's breaker position, in agent
// order.
func (c *Client) BreakerStates() []BreakerState {
	out := make([]BreakerState, len(c.breakers))
	for i := range c.breakers {
		out[i] = c.breakers[i].current()
	}
	return out
}

// noteOverload feeds one pushback or retry give-up from agent i into its
// breaker.
func (c *Client) noteOverload(i int, why string) {
	if i < 0 || i >= len(c.breakers) {
		return
	}
	from, to, changed := c.breakers[i].strike(time.Now(), c.cfg.BreakerThreshold, breakerCooldown)
	if changed {
		if to == BreakerOpen && from == BreakerClosed {
			c.tel.Count(evBreakerTrip, i)
		}
		c.tel.Note(evBreaker, i, nil, "%v -> %v (%s)", from, to, why)
	}
}

// noteAgentOK feeds one completed burst from agent i into its breaker.
func (c *Client) noteAgentOK(i int) {
	if i < 0 || i >= len(c.breakers) {
		return
	}
	if from, to, changed := c.breakers[i].success(); changed {
		c.tel.Note(evBreaker, i, nil, "%v -> %v (trial burst completed)", from, to)
	}
}

// hedgeDelay is how long a read burst on agent i may stall before the
// client hedges: a multiple of the agent's live p99 burst latency,
// floored at the base retry timeout so a cold histogram cannot cause
// hair-trigger hedging.
func (c *Client) hedgeDelay(i int) time.Duration {
	return max(hedgeMultiplier*c.tel.agents[i].burstLat[reading].Percentile(99), c.cfg.RetryTimeout)
}

// isOverloadSignal reports whether err is backpressure (pushback, hedge,
// spent deadline) rather than agent failure — errors that must never
// feed the failure-domain lifecycle.
func isOverloadSignal(err error) bool {
	return errors.Is(err, ErrAgentBusy) || errors.Is(err, errHedged) || errors.Is(err, ErrDeadline)
}

// agentBusy wraps ErrAgentBusy with the shedding agent's identity.
func agentBusy(i int) error {
	return fmt.Errorf("%w: agent %d", ErrAgentBusy, i)
}
