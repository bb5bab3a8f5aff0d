package obs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"swift/internal/stats"
)

// TestBucketRoundTrip: every value lands in a bucket whose bounds contain
// it, across the small-value exact range and several octaves.
func TestBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 7, 8, 9, 15, 16, 100, 1000, 4095, 4096,
		1e6, 1e9, 5e9, 1 << 40}
	for _, v := range values {
		idx := bucketOf(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket %d with bounds [%d,%d)", v, idx, lo, hi)
		}
	}
	// Bucket indices are monotonic in the value.
	prev := -1
	for v := int64(0); v < 1<<20; v += 977 {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf not monotonic at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

// TestHistogramBasics: count, sum, min and max are exact; zero
// observations survive later larger ones.
func TestHistogramBasics(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(10 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if want := 2*time.Millisecond + 10*time.Microsecond; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if s.Min != 0 {
		t.Fatalf("min = %v, want 0 (zero observation must survive)", s.Min)
	}
	if s.Max != 2*time.Millisecond {
		t.Fatalf("max = %v, want 2ms", s.Max)
	}
	if s.Mean <= 0 || s.Mean > s.Max {
		t.Fatalf("mean = %v out of range", s.Mean)
	}

	var empty Histogram
	es := empty.Snapshot()
	if es.Count != 0 || es.P99 != 0 || es.Min != 0 || es.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", es)
	}
}

// TestHistogramPercentilesVsSample: the log-bucketed percentiles must
// agree with the exact order-statistic percentiles from internal/stats
// within the bucket quantization error (≤ ~12.5% plus interpolation).
func TestHistogramPercentilesVsSample(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	var s stats.Sample
	for i := 0; i < 20000; i++ {
		// Long-tailed latencies: microseconds to tens of milliseconds.
		v := time.Duration(1000 * (1 + rng.ExpFloat64()*5000))
		h.Observe(v)
		s.Add(float64(v))
	}
	snap := h.Snapshot()
	for _, tc := range []struct {
		name  string
		got   time.Duration
		exact float64
	}{
		{"p50", snap.P50, s.Percentile(50)},
		{"p90", snap.P90, s.Percentile(90)},
		{"p99", snap.P99, s.Percentile(99)},
	} {
		rel := (float64(tc.got) - tc.exact) / tc.exact
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.25 {
			t.Errorf("%s = %v, exact %.0fns: relative error %.1f%% > 25%%",
				tc.name, tc.got, tc.exact, 100*rel)
		}
	}
	if m := time.Duration(s.Mean()); snap.Mean < m-m/100 || snap.Mean > m+m/100 {
		t.Errorf("mean = %v, exact %v (mean is not quantized; must match)", snap.Mean, m)
	}
}

// TestConcurrent hammers every primitive from many goroutines while a
// reader snapshots; run with -race to prove the data path is lock-free
// and race-free.
func TestConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h_seconds", "", nil)
	ring := NewTraceRing(64)

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					ring.Emit(Event{Layer: "test", Kind: "tick", Agent: w, Msg: fmt.Sprintf("i=%d", i)})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			h.Snapshot()
			ring.Snapshot()
			var sink nullWriter
			r.WritePrometheus(&sink)
			r.WriteJSON(&sink)
		}
	}()
	wg.Wait()
	<-done

	if got := c.Load(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestTraceRing: wrap-around keeps the newest window in order, Total
// counts everything, the tee prints every event its emitter did not log.
func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(16)
	var sunk []string
	stop := ring.Tee(func(format string, args ...any) { sunk = append(sunk, fmt.Sprintf(format, args...)) })
	ring.Emit(Event{Kind: "logged", Agent: -1, Logged: true}) // already printed by its emitter
	for i := 0; i < 40; i++ {
		ring.Emit(Event{Layer: "core", Kind: "evt", Agent: i % 3, Msg: fmt.Sprintf("event %d", i)})
	}
	if ring.Total() != 41 {
		t.Fatalf("total = %d, want 41", ring.Total())
	}
	stop() // drains the tee
	if len(sunk) != 40 || !strings.HasPrefix(sunk[0], "trace: ") || !strings.HasSuffix(sunk[0], " core/evt agent=0 event 0") {
		t.Fatalf("tee printed %d lines, want 40: %q", len(sunk), sunk)
	}
	snap := ring.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot holds %d, want 16", len(snap))
	}
	if snap[0].Msg != "event 24" || snap[15].Msg != "event 39" {
		t.Fatalf("wrong window: first=%q last=%q", snap[0].Msg, snap[15].Msg)
	}
	last := ring.Last(4)
	if len(last) != 4 || last[3].Msg != "event 39" {
		t.Fatalf("Last(4) wrong: %+v", last)
	}
	if s := snap[0].String(); s == "" {
		t.Fatal("event String empty")
	}
}
