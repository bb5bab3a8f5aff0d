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
// order. An optional sink receives every event as it is emitted (the
// Verbose log hookup).
type TraceRing struct {
	mu      sync.Mutex
	buf     []Event
	next    uint64 // total events emitted
	sink    func(Event)
	bufSink chan Event
	dropped atomic.Int64
}

// NewTraceRing returns a ring retaining the last n events (minimum 16).
func NewTraceRing(n int) *TraceRing {
	if n < 16 {
		n = 16
	}
	return &TraceRing{buf: make([]Event, n)}
}

// SetSink installs a function that receives every emitted event (nil
// removes it).
//
// Contract: the sink is called synchronously from the emitting goroutine,
// after the event is recorded, outside the ring's lock. A sink that
// blocks therefore stalls the emitter — acceptable for an in-memory tee,
// wrong for anything that can wait on I/O (a log writer behind a slow
// pipe, a network forwarder). Such sinks must use SetBufferedSink, which
// decouples the emitter behind a bounded queue.
func (r *TraceRing) SetSink(fn func(Event)) {
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// SetBufferedSink installs a sink fed through a bounded queue drained by
// a dedicated goroutine, so Emit never blocks on the sink: when the queue
// is full the event still lands in the ring but the sink delivery is
// dropped and counted (SinkDrops). This is the hookup for sinks that may
// block — the Verbose log tee in client and agent uses it.
//
// The returned stop function closes the queue, waits for the drain
// goroutine to flush, and detaches the sink; it is idempotent and must be
// called on shutdown (Client.Close / Agent.Close do).
func (r *TraceRing) SetBufferedSink(fn func(Event), depth int) (stop func()) {
	if depth <= 0 {
		depth = 256
	}
	ch := make(chan Event, depth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range ch {
			fn(e)
		}
	}()
	r.mu.Lock()
	r.bufSink = ch
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			r.bufSink = nil
			r.mu.Unlock()
			close(ch)
			<-done
		})
	}
}

// SinkDrops returns the number of events whose buffered-sink delivery was
// dropped because the queue was full.
func (r *TraceRing) SinkDrops() int64 { return r.dropped.Load() }

// Emit records one event, stamping the time if unset.
func (r *TraceRing) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	sink := r.sink
	// The buffered hand-off happens under the lock so stop() cannot close
	// the channel between the nil check and the send; the send itself is
	// non-blocking, so the lock is never held for longer than an enqueue.
	if r.bufSink != nil {
		select {
		case r.bufSink <- e:
		default:
			r.dropped.Add(1)
		}
	}
	r.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// Emitf is Emit with a formatted message.
func (r *TraceRing) Emitf(layer, kind string, agent int, format string, args ...any) {
	r.Emit(Event{Layer: layer, Kind: kind, Agent: agent, Msg: fmt.Sprintf(format, args...)}) //lint:allow hotalloc event messages allocate by design; the ring bounds retention
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
