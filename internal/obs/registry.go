package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Labels name one metric instance among several sharing a metric name
// (e.g. the per-agent histograms of one client).
type Labels map[string]string

// With returns a copy of l with one more label.
func (l Labels) With(k, v string) Labels {
	out := Labels{k: v}
	for lk, lv := range l {
		out[lk] = lv
	}
	return out
}

// render formats labels deterministically: {a="x",b="y"} with keys sorted.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "summary"
	default:
		return "gauge"
	}
}

func (k metricKind) jsonType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered instrument.
type metric struct {
	name   string
	help   string
	labels Labels
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
	f      func() float64
}

// Registry is a named collection of metrics. Registration takes a mutex;
// the returned instruments are lock-free to record into. A Registry is
// scoped (per client, per agent process) rather than global, so tests and
// multi-client processes never collide on names.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// Counter registers and returns a counter. Histograms and counters with
// the same name must differ in labels; the registry does not police this.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, labels: labels, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, labels: labels, kind: kindGauge, g: g})
	return g
}

// Histogram registers and returns a latency histogram. By convention the
// name ends in "_seconds"; exported values are in seconds.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	h := &Histogram{}
	r.add(&metric{name: name, help: help, labels: labels, kind: kindHistogram, h: h})
	return h
}

// CounterFunc registers a counter whose value is computed at export time —
// for counters that already live elsewhere (a segment's frame count, a
// client's protocol counters) and should not be double-booked.
func (r *Registry) CounterFunc(name, help string, labels Labels, f func() float64) {
	r.add(&metric{name: name, help: help, labels: labels, kind: kindCounterFunc, f: f})
}

// GaugeFunc registers a gauge computed at export time (utilization ratios,
// load fractions, queue depths owned by another subsystem).
func (r *Registry) GaugeFunc(name, help string, labels Labels, f func() float64) {
	r.add(&metric{name: name, help: help, labels: labels, kind: kindGaugeFunc, f: f})
}

// snapshotMetrics copies the metric list so exporters iterate without
// holding the registration lock.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

// Names returns the registered metric names in registration order,
// de-duplicated (labeled instances share a name).
func (r *Registry) Names() []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range r.snapshotMetrics() {
		if !seen[m.name] {
			seen[m.name] = true
			out = append(out, m.name)
		}
	}
	return out
}
