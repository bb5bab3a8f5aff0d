package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace event: a burst-level or lifecycle-level
// occurrence worth seeing when diagnosing a transfer. Events are emitted
// off the per-packet hot path (timeouts, failovers, state transitions,
// session lifecycle) so the ring can afford a mutex.
type Event struct {
	Time  time.Time
	Layer string // emitting layer: "core", "agent", "mediator", ...
	Kind  string // event class: "read_timeout", "health", "failover", ...
	Agent int    // agent index when attributable, else -1
	Msg   string
	// Logged marks an event its emitter also printed to its log, so a
	// sink teeing events to that log skips it.
	Logged bool
}

// String renders the event as one log line.
func (e Event) String() string {
	if e.Agent >= 0 {
		return fmt.Sprintf("%s %s/%s agent=%d %s",
			e.Time.Format("15:04:05.000"), e.Layer, e.Kind, e.Agent, e.Msg)
	}
	return fmt.Sprintf("%s %s/%s %s",
		e.Time.Format("15:04:05.000"), e.Layer, e.Kind, e.Msg)
}

// TraceRing is a bounded ring buffer of recent trace events. Writers
// overwrite the oldest entries; Snapshot returns the retained window in
// order. A Tee prints events to a log as they are emitted.
type TraceRing struct {
	mu      sync.Mutex
	buf     []Event
	next    uint64     // total events emitted
	tee     chan Event // nil: no Tee
	dropped atomic.Int64
}

// NewTraceRing returns a ring retaining the last n events (minimum 16).
func NewTraceRing(n int) *TraceRing {
	if n < 16 {
		n = 16
	}
	return &TraceRing{buf: make([]Event, n)}
}

// Tee prints each event emitted from now on that its emitter did not
// already log (Logged) through logf as "trace: <event>": the processes'
// Verbose mode. Events reach logf through a bounded queue drained by its
// own goroutine, so Emit never blocks on a slow log: when the queue is
// full the event still lands in the ring but its line is dropped and
// counted (SinkDrops). stop flushes the queue and detaches the tee; it is
// idempotent and must be called on shutdown (Events.Close does).
func (r *TraceRing) Tee(logf func(format string, args ...any)) (stop func()) {
	ch := make(chan Event, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range ch {
			if !e.Logged {
				logf("trace: %s", e.String())
			}
		}
	}()
	r.mu.Lock()
	r.tee = ch
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			r.tee = nil
			r.mu.Unlock()
			close(ch)
			<-done
		})
	}
}

// SinkDrops returns the number of events the Tee dropped because its
// queue was full.
func (r *TraceRing) SinkDrops() int64 { return r.dropped.Load() }

// Emit records one event, stamping the time if unset.
func (r *TraceRing) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	// The hand-off to a Tee happens under the lock so stop() cannot close
	// the channel between the nil check and the send; the send itself is
	// non-blocking, so the lock is never held for longer than an enqueue.
	if r.tee != nil {
		select {
		case r.tee <- e:
		default:
			r.dropped.Add(1)
		}
	}
	r.mu.Unlock()
}

// Total returns the number of events emitted over the ring's lifetime.
func (r *TraceRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot returns the retained events, oldest first.
func (r *TraceRing) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	start := uint64(0)
	count := r.next
	if count > n {
		start = r.next - n
		count = n
	}
	out := make([]Event, 0, count)
	for i := start; i < r.next; i++ {
		out = append(out, r.buf[i%n])
	}
	return out
}

// Last returns up to n most recent events, oldest first.
func (r *TraceRing) Last(n int) []Event {
	all := r.Snapshot()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}
