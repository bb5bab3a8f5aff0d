// Package backoff is the retry discipline every Swift client-side
// request/reply path shares: the data-path client's bursts, its control
// RPCs, medrpc's mediator RPCs, and the mediator broker's replica walk.
//
// A Policy doubles a base delay per backoff level, caps it at a
// maximum, and adds ±25% jitter so independent clients that timed out
// together do not retransmit together (the classic synchronized-retry
// stampede). Each Policy owns its own jitter stream, seeded uniquely
// per instance: policies created in the same process never share a
// generator, so one client's draw order cannot skew another's, and a
// test can pin the stream with NewSeeded.
//
// A Clock is one outstanding exchange on a Policy: when silence next
// counts as a timeout, when the exchange is given up for want of
// progress, and how far the wait has backed off. wire.Exchange runs
// every control RPC on one; the data-path client keeps one per burst.
package backoff

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// seedCounter distinguishes per-instance seeds without consulting the
// wall clock (Policy stays usable from clock-free model packages).
var seedCounter atomic.Uint64

// splitmix64 mixes a counter value into a well-distributed seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Policy computes retransmission delays: capped exponential growth from
// a base with ±25% jitter. Safe for concurrent use.
type Policy struct {
	base time.Duration
	max  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Policy doubling from base up to max, with a jitter
// stream seeded uniquely for this instance.
func New(base, max time.Duration) *Policy {
	return NewSeeded(base, max, splitmix64(seedCounter.Add(1)))
}

// NewSeeded is New with an explicit jitter seed, for deterministic
// tests.
func NewSeeded(base, max time.Duration, seed uint64) *Policy {
	return &Policy{
		base: base,
		max:  max,
		rng:  rand.New(rand.NewSource(int64(seed))),
	}
}

// Base returns the policy's initial delay.
func (p *Policy) Base() time.Duration { return p.base }

// Max returns the policy's delay cap (before jitter).
func (p *Policy) Max() time.Duration { return p.max }

// Delay returns the delay for the given backoff level: base doubled
// level times, capped at max, ±25% jitter. Level 0 is the first
// attempt's delay.
func (p *Policy) Delay(level int) time.Duration {
	d := p.base
	for i := 0; i < level && d < p.max; i++ {
		d *= 2
	}
	if d > p.max {
		d = p.max
	}
	return p.Jitter(d)
}

// Jitter returns d with the policy's ±25% jitter applied — for pacing
// hints handed down by a server (a retry-after) that every client would
// otherwise honor in lockstep, re-synchronizing the stampede the hint
// was meant to break up.
func (p *Policy) Jitter(d time.Duration) time.Duration {
	if j := int64(d / 4); j > 0 {
		p.mu.Lock()
		d += time.Duration(p.rng.Int63n(2*j+1) - j)
		p.mu.Unlock()
	}
	return d
}

// Clock is the retry discipline of one outstanding exchange. Silence
// until Next is a timeout: the exchange retransmits and waits one backoff
// level longer, so a silent peer is not hammered on the shared medium.
// Any progress starts the clock over (Policy.Start), so deep loss is
// survived while a dead peer is given up on in bounded time. Callers pass
// the time in; the clock never reads it.
type Clock struct {
	Next   time.Time // silence until then is a timeout
	GiveUp time.Time // no progress until then ends the exchange
	Level  int       // backoff level of the wait after the next timeout
	p      *Policy
}

// Start returns the clock of an exchange that began, or made progress, at
// now: the first timeout is the base delay away, unjittered, and give-up
// is budget away.
func (p *Policy) Start(now time.Time, budget time.Duration) Clock {
	return Clock{Next: now.Add(p.base), GiveUp: now.Add(budget), p: p}
}

// Expire is called when c.Next has passed in silence at now. It reports
// spent when give-up has passed too; otherwise the caller retransmits and
// the clock waits the policy's delay for its level, one level longer than
// the last wait.
func (c *Clock) Expire(now time.Time) (spent bool) {
	if !now.Before(c.GiveUp) {
		return true
	}
	c.Next = now.Add(c.p.Delay(c.Level))
	c.Level++
	return false
}
