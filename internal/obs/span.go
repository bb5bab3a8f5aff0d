package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing: every client operation mints a (TraceID, SpanID,
// sampled) context that rides the wire to agents and mediators; each hop
// opens child spans, and finished spans land in a bounded per-process
// collector. Sampling is tail-based: when tracing is enabled every op is
// recorded, and the keep/drop decision happens when the op's span tree
// completes — ops that error, hit a resend/repair retry, carry the
// head-sample flag, or run slower than the op type's live p99 are kept;
// the rest are discarded. This keeps the interesting traces (the slow
// tail the paper's tables exist to explain) without paying to retain the
// fast majority.
//
// The per-packet data path stays allocation-free: data packets (TData)
// never carry trace context, and with tracing disabled (Rate <= 0) every
// tracer and span method is a nil-receiver no-op.

// Span context flag bits (propagated on the wire).
const (
	// SpanSampled marks a head-sampled trace: every hop keeps its
	// fragment regardless of local tail criteria.
	SpanSampled uint8 = 1 << 0
)

// SpanContext is the propagated identity of one span: enough for a remote
// hop to attach children to the right parent in the right trace.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Flags   uint8
}

// Valid reports whether the context names a trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// Sampled reports whether the head-sample flag is set.
func (c SpanContext) Sampled() bool { return c.Flags&SpanSampled != 0 }

// Note is one timestamped annotation inside a span, stored as an offset
// from the span's start.
type Note struct {
	At  time.Duration `json:"at"`
	Msg string        `json:"msg"`
}

// SpanRecord is one finished span as retained by the collector.
type SpanRecord struct {
	SpanID uint64        `json:"span"`
	Parent uint64        `json:"parent"` // 0 for a locally-minted root
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Agent  int           `json:"agent"` // agent index when attributable, else -1
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur"`
	Err    string        `json:"err,omitempty"`
	Retry  bool          `json:"retry,omitempty"`
	Fault  bool          `json:"fault,omitempty"` // injected-fault drill
	Notes  []Note        `json:"notes,omitempty"`
}

// Trace is one assembled span tree, kept by the tail sampler.
type Trace struct {
	TraceID uint64        `json:"trace"`
	Op      string        `json:"op"`    // root span name
	Layer   string        `json:"layer"` // root span layer
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur"`
	Err     string        `json:"err,omitempty"`
	Keep    string        `json:"keep"` // why it was kept: error|retry|fault|slow|sampled
	Spans   []SpanRecord  `json:"spans"`
}

// Slow reports whether the trace was kept by a tail criterion (not merely
// head-sampled): it errored, retried, carried an injected fault, or
// exceeded the op's live p99.
func (t Trace) Slow() bool { return t.Keep != "sampled" }

// Span is one live (unfinished) span. A nil *Span is valid and every
// method on it is a no-op, so call sites need no tracing-enabled checks
// and the disabled path allocates nothing.
type Span struct {
	tracer *Tracer
	ctx    SpanContext
	parent uint64
	name   string
	layer  string
	agent  int
	start  time.Time

	mu    sync.Mutex
	err   string
	retry bool
	fault bool
	notes []Note
}

// Context returns the span's propagable context (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Annotate appends a timestamped note to the span.
func (s *Span) Annotate(format string, args ...any) {
	if s == nil {
		return
	}
	at := time.Since(s.start)
	s.mu.Lock()
	if len(s.notes) < maxSpanNotes {
		s.notes = append(s.notes, Note{At: at, Msg: fmt.Sprintf(format, args...)}) //lint:allow hotalloc span notes allocate by design, capped at maxSpanNotes per span
	}
	s.mu.Unlock()
}

// AnnotateRange notes the byte range [lo, hi) of what, as "what [lo:hi)",
// or "[lo:hi)" when what is empty. Unlike Annotate's arguments, its own
// box nothing at the call site, so an untraced op's note costs nothing.
func (s *Span) AnnotateRange(what string, lo, hi int64) {
	if s == nil {
		return
	}
	sep := " "
	if what == "" {
		sep = ""
	}
	s.Annotate("%s%s[%d:%d)", what, sep, lo, hi) //lint:allow hotalloc a traced span only: the nil span returned above
}

// SetError records the op's failure on the span (nil error is ignored).
// An errored span forces its whole trace to be kept.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// MarkRetry flags the span as having hit a retry/resend/repair path,
// which forces its whole trace to be kept.
func (s *Span) MarkRetry() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.retry = true
	s.mu.Unlock()
}

// MarkFault flags the span as carrying an injected fault (a latency or
// loss drill), which forces its whole trace to be kept. Without it a
// uniformly-injected delay never trips the live-p99 criterion — every op
// is equally slow — and the drill's traces would only survive head
// sampling.
func (s *Span) MarkFault() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.fault = true
	s.mu.Unlock()
}

// StartChild opens a child span in the same trace. agent is the agent
// index when the child is attributable to one, else -1.
func (s *Span) StartChild(name string, agent int) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(s.ctx.TraceID, s.ctx.SpanID, s.ctx.Flags, s.layer, name, agent)
}

// Finish closes the span and hands it to the collector. When it is the
// last unfinished span of its trace, the tree is assembled and the
// keep/drop decision is made.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	rec := SpanRecord{
		SpanID: s.ctx.SpanID,
		Parent: s.parent,
		Name:   s.name,
		Layer:  s.layer,
		Agent:  s.agent,
		Start:  s.start,
		Dur:    end.Sub(s.start),
		Err:    s.err,
		Retry:  s.retry,
		Fault:  s.fault,
		Notes:  s.notes,
	}
	s.mu.Unlock()
	s.tracer.finish(s.ctx, rec)
}

// Collector bounds. Open traces beyond maxOpenTraces and spans beyond
// maxTraceSpans per trace are dropped (and counted); the finished ring
// keeps the most recent keptTraces trees.
const (
	defaultMaxOpen   = 512
	defaultMaxSpans  = 256
	defaultKeep      = 128
	maxSpanNotes     = 64
	slowMinSamples   = 64 // per-op observations before the live p99 gates
	staleTraceWindow = 5 * time.Minute
)

// openTrace buffers the finished spans of a not-yet-complete trace.
type openTrace struct {
	spans   []SpanRecord
	pending int  // spans started but not yet finished
	sampled bool // head-sample flag seen on any span
	touched time.Time
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// Rate is the head-sampling probability in [0,1]. Rate <= 0 disables
	// tracing entirely: StartOp returns nil and nothing allocates.
	// Regardless of Rate, while tracing is enabled every op records spans
	// and the tail sampler keeps errored/retried/slow ops.
	Rate float64
	// MaxOpen bounds the number of distinct in-flight traces buffered
	// (default 512). MaxSpans bounds spans retained per trace (default
	// 256). Keep bounds the finished-trace ring (default 128).
	MaxOpen  int
	MaxSpans int
	Keep     int
}

// Tracer mints spans and collects finished span trees. One Tracer serves
// one process (or one in-process cluster in tests, where sharing a single
// Tracer across client, agents and mediators assembles cross-layer trees
// in one collector). The zero of *Tracer (nil) is a valid disabled tracer.
type Tracer struct {
	threshold uint64 // head-sample when id <= threshold
	maxOpen   int
	maxSpans  int
	keep      int
	rng       atomic.Uint64

	mu     sync.Mutex
	open   map[uint64]*openTrace
	done   []Trace // ring, oldest first
	opHist map[string]*Histogram

	spansStarted  Counter
	spansFinished Counter
	spansDropped  Counter
	tracesKept    Counter
	tracesDropped Counter
}

// NewTracer returns a Tracer. A Rate <= 0 yields a nil (disabled) tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Rate <= 0 {
		return nil
	}
	t := &Tracer{
		maxOpen:  cfg.MaxOpen,
		maxSpans: cfg.MaxSpans,
		keep:     cfg.Keep,
		open:     make(map[uint64]*openTrace),
		opHist:   make(map[string]*Histogram),
	}
	if t.maxOpen <= 0 {
		t.maxOpen = defaultMaxOpen
	}
	if t.maxSpans <= 0 {
		t.maxSpans = defaultMaxSpans
	}
	if t.keep <= 0 {
		t.keep = defaultKeep
	}
	if cfg.Rate >= 1 {
		t.threshold = math.MaxUint64
	} else {
		t.threshold = uint64(cfg.Rate * float64(math.MaxUint64))
	}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// Register exposes the tracer's own health as swift_trace_* series.
func (t *Tracer) Register(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.CounterFunc("swift_trace_spans_started_total",
		"Spans opened across all layers served by this tracer.", nil,
		func() float64 { return float64(t.spansStarted.Load()) })
	r.CounterFunc("swift_trace_spans_finished_total",
		"Spans finished and handed to the collector.", nil,
		func() float64 { return float64(t.spansFinished.Load()) })
	r.CounterFunc("swift_trace_spans_dropped_total",
		"Spans discarded because a collector bound was hit.", nil,
		func() float64 { return float64(t.spansDropped.Load()) })
	r.CounterFunc("swift_trace_traces_kept_total",
		"Assembled span trees kept by the tail sampler.", nil,
		func() float64 { return float64(t.tracesKept.Load()) })
	r.CounterFunc("swift_trace_traces_discarded_total",
		"Assembled span trees discarded by the tail sampler.", nil,
		func() float64 { return float64(t.tracesDropped.Load()) })
	r.GaugeFunc("swift_trace_traces_open",
		"In-flight traces currently buffered in the collector.", nil,
		func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(len(t.open))
		})
}

// id draws the next pseudo-random 64-bit id (xorshift; never 0).
func (t *Tracer) id() uint64 {
	for {
		old := t.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if t.rng.CompareAndSwap(old, x) {
			if x == 0 {
				x = 1
			}
			return x
		}
	}
}

// StartOp opens a locally-rooted span for one client operation. Returns
// nil (trace everything downstream as no-ops) when tracing is disabled.
func (t *Tracer) StartOp(layer, name string) *Span {
	if t == nil {
		return nil
	}
	var flags uint8
	id := t.id()
	if id <= t.threshold {
		flags = SpanSampled
	}
	return t.start(id, 0, flags, layer, name, -1)
}

// StartRemote opens a span joined to a context that arrived over the
// wire: the local fragment of a trace rooted in another process.
func (t *Tracer) StartRemote(ctx SpanContext, layer, name string, agent int) *Span {
	if t == nil || !ctx.Valid() {
		return nil
	}
	return t.start(ctx.TraceID, ctx.SpanID, ctx.Flags, layer, name, agent)
}

func (t *Tracer) start(traceID, parent uint64, flags uint8, layer, name string, agent int) *Span {
	s := &Span{ //lint:allow hotalloc one span record per traced op, bounded by sampling and maxOpen
		tracer: t,
		ctx:    SpanContext{TraceID: traceID, SpanID: t.id(), Flags: flags},
		parent: parent,
		name:   name,
		layer:  layer,
		agent:  agent,
		start:  time.Now(),
	}
	t.spansStarted.Inc()
	t.mu.Lock()
	ot := t.open[traceID]
	if ot == nil {
		if len(t.open) >= t.maxOpen {
			t.evictStaleLocked(s.start)
		}
		if len(t.open) < t.maxOpen {
			ot = &openTrace{} //lint:allow hotalloc one open-trace record per sampled trace, capped at maxOpen
			t.open[traceID] = ot
		}
	}
	if ot != nil {
		ot.pending++
		ot.touched = s.start
		if flags&SpanSampled != 0 {
			ot.sampled = true
		}
	}
	t.mu.Unlock()
	return s
}

// evictStaleLocked discards open traces untouched for staleTraceWindow —
// orphaned fragments whose root died or whose packets were lost.
func (t *Tracer) evictStaleLocked(now time.Time) {
	for id, ot := range t.open {
		if now.Sub(ot.touched) > staleTraceWindow {
			t.spansDropped.Add(int64(len(ot.spans)))
			delete(t.open, id)
		}
	}
}

func (t *Tracer) finish(ctx SpanContext, rec SpanRecord) {
	t.spansFinished.Inc()
	t.mu.Lock()
	ot := t.open[ctx.TraceID]
	if ot == nil {
		// Collector was full when the span started; nothing buffered.
		t.spansDropped.Inc()
		t.mu.Unlock()
		return
	}
	if len(ot.spans) < t.maxSpans {
		ot.spans = append(ot.spans, rec) //lint:allow hotalloc span buffer grows to maxSpans once per sampled trace, then stops
	} else {
		t.spansDropped.Inc()
	}
	ot.pending--
	ot.touched = time.Now()
	if ot.pending > 0 {
		t.mu.Unlock()
		return
	}
	// Last span of the trace (or of this process's fragment): assemble.
	delete(t.open, ctx.TraceID)
	tr := assemble(ctx.TraceID, ot.spans)
	keep := t.keepReason(ot, tr)
	if keep == "" {
		t.tracesDropped.Inc()
		t.mu.Unlock()
		return
	}
	tr.Keep = keep
	t.done = append(t.done, tr)
	if len(t.done) > t.keep {
		t.done = t.done[len(t.done)-t.keep:]
	}
	t.tracesKept.Inc()
	t.mu.Unlock()
}

// keepReason applies the tail-sampling policy and returns why the trace
// is kept, or "" to discard. Called with t.mu held.
func (t *Tracer) keepReason(ot *openTrace, tr Trace) string {
	errored, retried, faulted := false, false, false
	for i := range tr.Spans {
		if tr.Spans[i].Err != "" {
			errored = true
		}
		if tr.Spans[i].Retry {
			retried = true
		}
		if tr.Spans[i].Fault {
			faulted = true
		}
	}
	// Locally-rooted traces feed the per-op latency histogram that the
	// "slower than live p99" criterion reads.
	var slow bool
	if len(tr.Spans) > 0 && tr.Spans[0].Parent == 0 {
		h := t.opHist[tr.Op]
		if h == nil {
			h = &Histogram{} //lint:allow hotalloc one histogram per distinct op name, amortized over the process lifetime
			t.opHist[tr.Op] = h
		}
		if h.Count() >= slowMinSamples && tr.Dur > h.Percentile(99) {
			slow = true
		}
		h.Observe(tr.Dur)
	}
	switch {
	case errored:
		return "error"
	case retried:
		return "retry"
	case faulted:
		return "fault"
	case slow:
		return "slow"
	case ot.sampled:
		return "sampled"
	}
	return ""
}

// assemble orders spans (roots first, then by start time) into a Trace.
func assemble(traceID uint64, spans []SpanRecord) Trace {
	local := make(map[uint64]bool, len(spans)) //lint:allow hotalloc assemble runs once per kept trace, rate-limited by the keep policy
	for i := range spans {
		local[spans[i].SpanID] = true
	}
	sort.SliceStable(spans, func(i, j int) bool { //lint:allow hotalloc assemble runs once per kept trace, rate-limited by the keep policy
		ri := spans[i].Parent == 0 || !local[spans[i].Parent]
		rj := spans[j].Parent == 0 || !local[spans[j].Parent]
		if ri != rj {
			return ri
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	tr := Trace{TraceID: traceID, Spans: spans}
	if len(spans) > 0 {
		root := spans[0]
		tr.Op, tr.Layer, tr.Start, tr.Dur, tr.Err = root.Name, root.Layer, root.Start, root.Dur, root.Err
	}
	return tr
}

// Traces returns the kept traces, most recent last.
func (t *Tracer) Traces() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, len(t.done))
	copy(out, t.done)
	return out
}

// TraceByID returns the kept trace with the given id.
func (t *Tracer) TraceByID(id uint64) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.done) - 1; i >= 0; i-- {
		if t.done[i].TraceID == id {
			return t.done[i], true
		}
	}
	return Trace{}, false
}

// Waterfall renders the trace as an indented text tree with proportional
// duration bars — the human-readable form served at /trace/ops and by
// `swiftctl trace`.
func (tr Trace) Waterfall() string {
	var b []byte
	b = fmt.Appendf(b, "trace %016x op=%s layer=%s dur=%v keep=%s",
		tr.TraceID, tr.Op, tr.Layer, tr.Dur, tr.Keep)
	if tr.Err != "" {
		b = fmt.Appendf(b, " err=%q", tr.Err)
	}
	b = append(b, '\n')
	depth := spanDepths(tr.Spans)
	const cols = 40
	total := tr.Dur
	if total <= 0 {
		total = 1
	}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		off := s.Start.Sub(tr.Start)
		lo := int(int64(off) * cols / int64(total))
		hi := int(int64(off+s.Dur) * cols / int64(total))
		if lo < 0 {
			lo = 0
		}
		if hi > cols {
			hi = cols
		}
		if hi <= lo {
			hi = lo + 1
		}
		bar := make([]byte, cols+1)
		for j := range bar {
			switch {
			case j >= lo && j < hi:
				bar[j] = '#'
			default:
				bar[j] = '.'
			}
		}
		b = fmt.Appendf(b, "  [%s] %*s%s", bar, 2*depth[s.SpanID], "", s.Name)
		if s.Agent >= 0 {
			b = fmt.Appendf(b, " agent=%d", s.Agent)
		}
		b = fmt.Appendf(b, " +%v %v", off, s.Dur)
		if s.Retry {
			b = append(b, " RETRY"...)
		}
		if s.Fault {
			b = append(b, " FAULT"...)
		}
		if s.Err != "" {
			b = fmt.Appendf(b, " err=%q", s.Err)
		}
		b = append(b, '\n')
		for _, n := range s.Notes {
			b = fmt.Appendf(b, "  %*s· +%v %s\n", 2*depth[s.SpanID]+4+cols+1, "", off+n.At, n.Msg)
		}
	}
	return string(b)
}

// spanDepths computes each span's depth below its tree's root.
func spanDepths(spans []SpanRecord) map[uint64]int {
	parent := make(map[uint64]uint64, len(spans))
	for i := range spans {
		parent[spans[i].SpanID] = spans[i].Parent
	}
	depth := make(map[uint64]int, len(spans))
	for i := range spans {
		d, id := 0, spans[i].SpanID
		for n := 0; n < len(spans); n++ {
			p, ok := parent[id]
			if !ok || p == 0 {
				break
			}
			if _, local := parent[p]; !local {
				break
			}
			d++
			id = p
		}
		depth[spans[i].SpanID] = d
	}
	return depth
}
