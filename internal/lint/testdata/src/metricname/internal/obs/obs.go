// Package obs is a stub of swift's metric registry; the analyzer
// recognizes it by its import-path suffix.
package obs

// Labels names one metric instance among several sharing a name.
type Labels map[string]string

// Counter is a stub instrument.
type Counter struct{}

// Gauge is a stub instrument.
type Gauge struct{}

// Histogram is a stub instrument.
type Histogram struct{}

// Registry is the stub registration surface.
type Registry struct{}

// Counter registers a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter { return &Counter{} }

// Gauge registers a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge { return &Gauge{} }

// Histogram registers a histogram.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram { return &Histogram{} }

// CounterFunc registers a computed counter.
func (r *Registry) CounterFunc(name, help string, labels Labels, f func() float64) {}

// GaugeFunc registers a computed gauge.
func (r *Registry) GaugeFunc(name, help string, labels Labels, f func() float64) {}

// EventKind is one row of a stub event table.
type EventKind struct{ Trace, Series, Help, AgentSeries, AgentHelp string }

// NewEvents registers a row's series, vetted at the row.
func NewEvents(reg *Registry, k *EventKind) { reg.Counter(k.Series, k.Help, nil) }
