package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// alwaysTracer returns a tracer that head-samples everything.
func alwaysTracer() *Tracer { return NewTracer(TracerConfig{Rate: 1}) }

func TestTracerDisabledIsNil(t *testing.T) {
	if tr := NewTracer(TracerConfig{Rate: 0}); tr != nil {
		t.Fatal("rate 0 must yield a nil tracer")
	}
	var tr *Tracer
	s := tr.StartOp("core", "read")
	if s != nil {
		t.Fatal("nil tracer must mint nil spans")
	}
	// Every method on a nil span is a no-op.
	s.Annotate("x %d", 1)
	s.SetError(errors.New("x"))
	s.MarkRetry()
	c := s.StartChild("y", 2)
	if c != nil {
		t.Fatal("child of nil span must be nil")
	}
	if ctx := s.Context(); ctx.Valid() {
		t.Fatal("nil span context must be invalid")
	}
	s.Finish()
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer Traces() = %v", got)
	}
}

// TestTracerDisabledZeroAlloc pins the acceptance criterion: with tracing
// disabled, the span API allocates nothing.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.StartOp("core", "read")
		c := s.StartChild("agent_read", 1)
		c.MarkRetry()
		c.Finish()
		s.Finish()
		_ = s.Context()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v per op, want 0", allocs)
	}
}

func TestSpanTreeAssembly(t *testing.T) {
	tr := alwaysTracer()
	root := tr.StartOp("core", "read")
	if root == nil {
		t.Fatal("enabled tracer minted nil span")
	}
	if !root.Context().Sampled() {
		t.Fatal("rate-1 tracer must head-sample")
	}
	c0 := root.StartChild("agent_read", 0)
	c1 := root.StartChild("agent_read", 1)
	c1.Annotate("resend ask")
	c1.MarkRetry()
	// A remote hop joins via the wire context.
	remote := tr.StartRemote(c0.Context(), "agent", "serve_read", 0)
	remote.Finish()
	c0.Finish()
	c1.Finish()
	root.Finish()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Op != "read" || got.Layer != "core" {
		t.Fatalf("root op/layer = %q/%q", got.Op, got.Layer)
	}
	if got.Keep != "retry" {
		t.Fatalf("keep = %q, want retry (retry outranks sampled)", got.Keep)
	}
	if len(got.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(got.Spans))
	}
	if got.Spans[0].Parent != 0 {
		t.Fatal("root span must sort first")
	}
	byID := map[uint64]SpanRecord{}
	for _, s := range got.Spans {
		byID[s.SpanID] = s
	}
	rootID := got.Spans[0].SpanID
	var foundRemote, foundRetry bool
	for _, s := range got.Spans {
		switch s.Name {
		case "agent_read":
			if s.Parent != rootID {
				t.Fatalf("agent_read parent = %x, want root %x", s.Parent, rootID)
			}
			if s.Retry {
				foundRetry = true
				if len(s.Notes) != 1 || s.Notes[0].Msg != "resend ask" {
					t.Fatalf("retry span notes = %+v", s.Notes)
				}
			}
		case "serve_read":
			foundRemote = true
			p, ok := byID[s.Parent]
			if !ok || p.Name != "agent_read" || p.Agent != 0 {
				t.Fatalf("serve_read parent = %+v", p)
			}
			if s.Layer != "agent" {
				t.Fatalf("serve_read layer = %q", s.Layer)
			}
		}
	}
	if !foundRemote || !foundRetry {
		t.Fatalf("remote=%v retry=%v, want both", foundRemote, foundRetry)
	}
	if _, ok := tr.TraceByID(got.TraceID); !ok {
		t.Fatal("TraceByID missed a kept trace")
	}
	wf := got.Waterfall()
	for _, want := range []string{"op=read", "serve_read", "RETRY", "resend ask"} {
		if !strings.Contains(wf, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, wf)
		}
	}
}

func TestTailSamplingKeepReasons(t *testing.T) {
	// Head-sampling off (tiny rate): plain fast ops must be discarded,
	// errored and retried ones kept.
	tr := NewTracer(TracerConfig{Rate: 1e-18})
	tr.threshold = 0 // never head-sample, deterministically

	s := tr.StartOp("core", "write")
	s.Finish()
	if n := len(tr.Traces()); n != 0 {
		t.Fatalf("fast clean op kept (%d traces), want discard", n)
	}
	if tr.tracesDropped.Load() != 1 {
		t.Fatalf("tracesDropped = %d, want 1", tr.tracesDropped.Load())
	}

	s = tr.StartOp("core", "write")
	s.SetError(errors.New("agent down"))
	s.Finish()
	s = tr.StartOp("core", "write")
	s.MarkRetry()
	s.Finish()
	traces := tr.Traces()
	if len(traces) != 2 || traces[0].Keep != "error" || traces[1].Keep != "retry" {
		t.Fatalf("keeps = %+v, want [error retry]", traces)
	}
	if traces[0].Err != "agent down" {
		t.Fatalf("root err = %q", traces[0].Err)
	}
}

func TestTailSamplingSlowOutlier(t *testing.T) {
	tr := NewTracer(TracerConfig{Rate: 1e-18})
	tr.threshold = 0
	// Feed the live p99 with fast ops, then finish one far past it. The
	// per-op histogram is internal, so seed it directly and use a
	// backdated span for the outlier.
	h := &Histogram{}
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	tr.mu.Lock()
	tr.opHist["read"] = h
	tr.mu.Unlock()

	s := tr.StartOp("core", "read")
	s.start = s.start.Add(-time.Second) // op took ~1s vs 1ms p99
	s.Finish()
	traces := tr.Traces()
	if len(traces) != 1 || traces[0].Keep != "slow" {
		t.Fatalf("slow outlier not kept: %+v", traces)
	}
}

func TestCollectorBounds(t *testing.T) {
	tr := NewTracer(TracerConfig{Rate: 1, MaxOpen: 2, MaxSpans: 2, Keep: 2})
	// Open three traces: the third exceeds MaxOpen and is not buffered.
	a := tr.StartOp("core", "read")
	b := tr.StartOp("core", "read")
	c := tr.StartOp("core", "read")
	c.Finish()
	if n := len(tr.Traces()); n != 0 {
		t.Fatalf("over-bound trace was kept (%d)", n)
	}
	if tr.spansDropped.Load() == 0 {
		t.Fatal("over-bound span not counted dropped")
	}
	// Per-trace span cap: 3 children + root on a MaxSpans=2 tracer.
	a.StartChild("x", -1).Finish()
	a.StartChild("y", -1).Finish()
	a.StartChild("z", -1).Finish()
	a.Finish()
	b.Finish()
	traces := tr.Traces()
	for _, g := range traces {
		if len(g.Spans) > 2 {
			t.Fatalf("trace retained %d spans, cap 2", len(g.Spans))
		}
	}
	// Keep ring bound.
	for i := 0; i < 5; i++ {
		s := tr.StartOp("core", "read")
		s.Finish()
	}
	if n := len(tr.Traces()); n > 2 {
		t.Fatalf("done ring holds %d, cap 2", n)
	}
}

func TestFilterTraces(t *testing.T) {
	traces := []Trace{
		{TraceID: 1, Op: "read", Keep: "sampled"},
		{TraceID: 2, Op: "write", Keep: "slow"},
		{TraceID: 3, Op: "read", Keep: "error"},
	}
	got, err := FilterTraces(traces, "read", "", false, 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("op filter: %v %v", got, err)
	}
	got, err = FilterTraces(traces, "", "", true, 0)
	if err != nil || len(got) != 2 || got[0].TraceID != 2 {
		t.Fatalf("slow filter: %v %v", got, err)
	}
	got, err = FilterTraces(traces, "", "3", false, 0)
	if err != nil || len(got) != 1 || got[0].TraceID != 3 {
		t.Fatalf("id filter: %v %v", got, err)
	}
	got, err = FilterTraces(traces, "", "", false, 1)
	if err != nil || len(got) != 1 || got[0].TraceID != 3 {
		t.Fatalf("n filter: %v %v", got, err)
	}
	if _, err = FilterTraces(traces, "", "zz", false, 0); err == nil {
		t.Fatal("bad hex id accepted")
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(time.Millisecond, 0xabc)
	for i := 0; i < 94; i++ {
		h.Observe(time.Millisecond)
	}
	// 5% of observations are 1s outliers, so p99 lands in their bucket.
	for i := 0; i < 5; i++ {
		h.ObserveExemplar(time.Second, 0xdef)
	}
	if got := h.Exemplar(99); got != 0xdef {
		t.Fatalf("p99 exemplar = %x, want def", got)
	}
	if got := h.Exemplar(50); got != 0xabc {
		t.Fatalf("p50 exemplar = %x, want abc", got)
	}
	var empty Histogram
	if got := empty.Exemplar(99); got != 0 {
		t.Fatalf("empty exemplar = %x, want 0", got)
	}
}

// TestBufferedSink verifies the tee's non-blocking hand-off: a log that
// stalls forever cannot stall Emit, and overflow is counted, while the
// ring itself still records every event.
func TestBufferedSink(t *testing.T) {
	r := NewTraceRing(64)
	block := make(chan struct{})
	var mu sync.Mutex
	var got []string
	stop := r.Tee(func(format string, args ...any) {
		<-block
		mu.Lock()
		got = append(got, fmt.Sprintf(format, args...))
		mu.Unlock()
	})

	done := make(chan struct{})
	go func() {
		for i := 0; i < 300; i++ { // past the tee's 256-event queue
			r.Emit(Event{Layer: "test", Kind: "evt", Agent: -1, Msg: fmt.Sprintf("e%d", i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stalled sink")
	}
	if r.Total() != 300 {
		t.Fatalf("ring recorded %d events, want 300", r.Total())
	}
	if r.SinkDrops() == 0 {
		t.Fatal("no sink drops counted despite stalled sink")
	}
	close(block)
	stop()
	stop() // idempotent
	mu.Lock()
	delivered := len(got)
	mu.Unlock()
	if delivered == 0 {
		t.Fatal("stop did not flush queued events")
	}
	// Events emitted after stop are recorded but not delivered.
	r.Emit(Event{Layer: "test", Kind: "evt", Agent: -1, Msg: "late"})
	mu.Lock()
	if len(got) != delivered {
		t.Fatal("sink received an event after stop")
	}
	mu.Unlock()
}

func TestTracerRegisterMetrics(t *testing.T) {
	tr := alwaysTracer()
	reg := NewRegistry()
	tr.Register(reg)
	s := tr.StartOp("core", "read")
	s.Finish()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"swift_trace_spans_started_total 1",
		"swift_trace_spans_finished_total 1",
		"swift_trace_traces_kept_total 1",
		"swift_trace_traces_open 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
