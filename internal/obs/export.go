package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fnum formats a float the way Prometheus clients do.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// secs converts a duration to seconds for export.
func secs(d time.Duration) float64 { return d.Seconds() }

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format. Histograms export as summaries: quantile series plus
// _sum and _count, values in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	headered := make(map[string]bool)
	header := func(m *metric) {
		if headered[m.name] {
			return
		}
		headered[m.name] = true
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind.promType())
	}
	for _, m := range r.snapshotMetrics() {
		header(m)
		ls := m.labels.render()
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, ls, m.c.Load())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, ls, m.g.Load())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&b, "%s%s %s\n", m.name, ls, fnum(m.f()))
		case kindHistogram:
			s := m.h.Snapshot()
			for _, q := range [...]struct {
				q string
				v time.Duration
			}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
				fmt.Fprintf(&b, "%s%s %s\n", m.name, m.labels.With("quantile", q.q).render(), fnum(secs(q.v)))
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, ls, fnum(secs(s.Sum)))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, ls, s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders every registered metric as one JSON document:
//
//	{"metrics":[{"name":...,"type":...,"labels":{...},"value":...}, ...]}
//
// Histogram entries carry count/sum/mean/min/max/p50/p90/p99 in seconds.
// The encoding is hand-rolled (ordered, no reflection) so output is
// deterministic for golden tests.
func (r *Registry) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString(`{"metrics":[`)
	first := true
	for _, m := range r.snapshotMetrics() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `{"name":%q,"type":%q`, m.name, m.kind.jsonType())
		if len(m.labels) > 0 {
			b.WriteString(`,"labels":{`)
			keys := make([]string, 0, len(m.labels))
			for k := range m.labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%q:%q", k, m.labels[k])
			}
			b.WriteByte('}')
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, `,"value":%d`, m.c.Load())
		case kindGauge:
			fmt.Fprintf(&b, `,"value":%d`, m.g.Load())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&b, `,"value":%s`, jsonNum(m.f()))
		case kindHistogram:
			s := m.h.Snapshot()
			fmt.Fprintf(&b,
				`,"count":%d,"sum":%s,"mean":%s,"min":%s,"max":%s,"p50":%s,"p90":%s,"p99":%s`,
				s.Count, jsonNum(secs(s.Sum)), jsonNum(secs(s.Mean)),
				jsonNum(secs(s.Min)), jsonNum(secs(s.Max)),
				jsonNum(secs(s.P50)), jsonNum(secs(s.P90)), jsonNum(secs(s.P99)))
			// Exemplar TraceIDs (hex) link percentile buckets to kept
			// traces; omitted when no exemplar-carrying observation has
			// landed, which keeps exemplar-free output golden-stable.
			for _, q := range [...]struct {
				name string
				p    float64
			}{{"x50", 50}, {"x90", 90}, {"x99", 99}} {
				if id := m.h.Exemplar(q.p); id != 0 {
					fmt.Fprintf(&b, `,"%s":"%016x"`, q.name, id)
				}
			}
		}
		b.WriteByte('}')
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonNum formats a float as a valid JSON number (no Inf/NaN).
func jsonNum(v float64) string {
	if v != v || v > 1e308 || v < -1e308 { // NaN or ±Inf
		return "0"
	}
	return fnum(v)
}
