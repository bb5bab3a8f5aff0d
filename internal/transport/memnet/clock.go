package memnet

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clock is a network's modeled time: the wall time since the epoch times
// the scale factor, less, on a holding clock, the time it was held.
//
// A holding clock (NewModeled) does not run past an instant while some
// part of the model owes an event there and has not yet been given the
// CPU to act on it: a sleeper whose deadline has come but whose goroutine
// has not run, or a receiver that a frame was handed to while it waited.
// Lateness on the real machine — a descheduled thread, a cold vCPU, a
// neighbour's CPU-bound job — then stretches the wall time a run takes
// instead of reading as a slower wire, disk or CPU. Real work between the
// model's waits is still charged at the wall-clock rate.
//
// On a holding clock sleepers park until one pacer goroutine wakes them,
// so a run spins one goroutine at most rather than one per sleeper.
type clock struct {
	scale   float64
	epoch   time.Time
	holding bool

	held atomic.Int64 // modeled ns withheld from the clock so far
	last atomic.Int64 // the latest instant now has returned
	due  atomic.Int64 // the earliest pending hold; math.MaxInt64 when none

	mu     sync.Mutex
	holds  []int64   // guarded by mu
	timers timerHeap // guarded by mu
	pacing bool      // guarded by mu
	free   []*timer  // guarded by mu
	// kick tells a pacer waiting on a wall timer that an earlier deadline
	// was parked.
	kick chan struct{}
}

const (
	// spinWindow is how close to a deadline a wait stops sleeping on a
	// wall timer and spins cooperatively: the kernel timer floor can
	// exceed a millisecond, a large modeled gap at high scales.
	spinWindow = 2 * time.Millisecond
	// inlineSpin is the longest wait a sleeper on a holding clock spins
	// itself rather than parking on the pacer: below it, the hand-off to
	// the pacer and back costs more than it saves.
	inlineSpin = 20 * time.Microsecond
)

func (c *clock) init(scale float64, holding bool) {
	c.scale, c.holding = scale, holding
	//lint:allow clockcheck the epoch anchors modeled time to the wall clock; every other timestamp derives from it
	c.epoch = time.Now()
	c.due.Store(math.MaxInt64)
	c.kick = make(chan struct{}, 1)
}

// now returns the modeled instant. A holding clock never reads earlier
// than it has read before, nor later than its earliest pending hold.
func (c *clock) now() int64 {
	//lint:allow clockcheck this is the injected clock's implementation: modeled time is scaled wall time since the epoch
	scaled := int64(float64(time.Since(c.epoch)) * c.scale)
	if !c.holding {
		return scaled
	}
	t := scaled - c.held.Load()
	if due := c.due.Load(); t > due {
		at := max(due, c.last.Load())
		if t > at {
			raise(&c.held, scaled-at)
			t = at
		}
	}
	return raise(&c.last, t)
}

// raise stores v in a unless a already holds more, and returns what a
// holds afterwards.
func raise(a *atomic.Int64, v int64) int64 {
	for {
		old := a.Load()
		if v <= old {
			return old
		}
		if a.CompareAndSwap(old, v) {
			return v
		}
	}
}

// hold keeps the clock from running past t until the matching release.
func (c *clock) hold(t int64) {
	c.mu.Lock()
	c.holds = append(c.holds, t)
	if t < c.due.Load() {
		c.due.Store(t)
	}
	c.mu.Unlock()
}

// release drops one hold at t.
func (c *clock) release(t int64) {
	c.mu.Lock()
	for i, h := range c.holds {
		if h == t {
			c.holds[i] = c.holds[len(c.holds)-1]
			c.holds = c.holds[:len(c.holds)-1]
			break
		}
	}
	due := int64(math.MaxInt64)
	for _, h := range c.holds {
		due = min(due, h)
	}
	c.due.Store(due)
	c.mu.Unlock()
}

// sleepUntil blocks until the modeled instant t. On a holding clock the
// sleeper holds the clock at t until it runs again, and parks on the
// pacer for all but the shortest waits.
func (c *clock) sleepUntil(t int64) {
	now := c.now()
	if now >= t {
		return
	}
	if c.holding {
		c.hold(t)
		defer c.release(t)
		if c.wall(t-now) > inlineSpin {
			c.park(t)
		}
	}
	for {
		now := c.now()
		if now >= t {
			return
		}
		if d := c.wall(t - now); d > spinWindow {
			//lint:allow clockcheck the pacing primitive: it burns real time to realize modeled delays
			time.Sleep(d - spinWindow)
			continue
		}
		runtime.Gosched() // keeps other model goroutines running on small machines
	}
}

// wall converts a modeled span to the wall time it takes unheld.
func (c *clock) wall(d int64) time.Duration {
	return time.Duration(float64(d) / c.scale)
}

// timer is one parked sleeper.
type timer struct {
	at   int64
	wake chan struct{}
}

// timerHeap orders parked sleepers earliest deadline first.
type timerHeap []*timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return t
}

// park blocks until the pacer has seen the clock reach t.
func (c *clock) park(t int64) {
	c.mu.Lock()
	var tm *timer
	if n := len(c.free); n > 0 {
		tm, c.free = c.free[n-1], c.free[:n-1]
	} else {
		tm = &timer{wake: make(chan struct{}, 1)} //lint:allow hotalloc timers are recycled: one per concurrent sleeper, for the network's lifetime
	}
	tm.at = t
	heap.Push(&c.timers, tm)
	first := c.timers[0] == tm
	start := !c.pacing
	c.pacing = true
	c.mu.Unlock()
	if start {
		go c.pace() //lint:allow hotalloc one pacer per spell with sleepers parked, not per sleep
	} else if first {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	<-tm.wake
	c.mu.Lock()
	c.free = append(c.free, tm)
	c.mu.Unlock()
}

// pace wakes parked sleepers as the clock reaches their deadlines, and
// exits when none is left.
func (c *clock) pace() {
	var wait *time.Timer
	for {
		c.mu.Lock()
		if len(c.timers) == 0 {
			c.pacing = false
			c.mu.Unlock()
			if wait != nil {
				wait.Stop()
			}
			return
		}
		next := c.timers[0].at
		c.mu.Unlock()
		now := c.now()
		if now >= next {
			c.mu.Lock()
			for len(c.timers) > 0 && c.timers[0].at <= now {
				// Never blocks: one send per park, into a buffer of one.
				heap.Pop(&c.timers).(*timer).wake <- struct{}{}
			}
			c.mu.Unlock()
			continue
		}
		d := c.wall(next - now)
		if d <= spinWindow {
			runtime.Gosched()
			continue
		}
		if wait == nil {
			//lint:allow clockcheck the pacer realizes modeled delays in wall time
			wait = time.NewTimer(d - spinWindow)
		} else {
			wait.Reset(d - spinWindow)
		}
		select {
		case <-wait.C:
		case <-c.kick:
			wait.Stop() // a stale expiry left behind only wakes the loop early
		}
	}
}
