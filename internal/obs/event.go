package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// EventKind is one row of a process's event table. A process reports each
// incident with one Events call, and its counter, trace ring entry, span
// mark and note and log line all come from the incident's row.
type EventKind struct {
	// Trace is the trace ring Kind; in words ("read_timeout": "read
	// timeout") it names the incident in span notes and log lines.
	Trace string
	// Series exports the kind's count (summed over the agent slots) and
	// AgentSeries each agent slot's, labeled agent="i"; "": not exported.
	Series, Help           string
	AgentSeries, AgentHelp string
	// Also is a kind whose counter this one's counts also add to; a kind
	// with no series of its own counts only there.
	Also *EventKind
	// Retry and Fault mark a noted span; Logged prints the note.
	Retry, Fault, Logged bool

	id int // index in its table
}

// EventTable is a process's event table. Each kind is declared once, as a
// package variable, the way a flag is:
//
//	var events obs.EventTable
//	var evOpen = events.Kind(obs.EventKind{Trace: "open", ...})
type EventTable struct{ kinds []*EventKind }

// Kind adds row to the table and returns the kind to report it by.
func (t *EventTable) Kind(row EventKind) *EventKind {
	row.id = len(t.kinds)
	t.kinds = append(t.kinds, &row)
	return &row
}

// Kinds returns the table's kinds in the order they were added.
func (t *EventTable) Kinds() []*EventKind { return t.kinds }

// EventConfig describes one process's events.
type EventConfig struct {
	Layer  string      // trace ring Layer and log line prefix
	Table  *EventTable // the process's kinds
	Agents int         // agent slots; 0: only the unattributed one
	Labels Labels      // added to every series
	Ring   *TraceRing  // nil: notes are not traced
	Logf   func(format string, args ...any)
	// Verbose also prints the Ring's unlogged events through Logf (Tee)
	// until Close.
	Verbose bool
}

// Events reports one process's incidents from its event table.
type Events struct {
	reg *Registry
	cfg EventConfig
	// n holds each kind's counters by slot: 0 unattributed, i+1 agent i.
	// A kind counted only in its Also target's shares them; also holds
	// the target's of a kind counted in both.
	n, also [][]*Counter
	stop    func() // the Verbose tee's
}

// NewEvents registers the table's series in reg.
func NewEvents(reg *Registry, cfg EventConfig) *Events {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	kinds := cfg.Table.kinds
	e := &Events{reg: reg, cfg: cfg, n: make([][]*Counter, len(kinds)), also: make([][]*Counter, len(kinds))}
	for _, k := range kinds {
		if k.Also != nil && k.Series == "" && k.AgentSeries == "" {
			continue
		}
		n := make([]*Counter, cfg.Agents+1)
		for i := range n {
			switch {
			case i > 0 && k.AgentSeries != "":
				n[i] = reg.Counter(k.AgentSeries, k.AgentHelp, cfg.Labels.With("agent", strconv.Itoa(i-1)))
			case cfg.Agents == 0 && k.Series != "":
				n[i] = reg.Counter(k.Series, k.Help, cfg.Labels)
			default:
				n[i] = new(Counter)
			}
		}
		if cfg.Agents > 0 && k.Series != "" {
			reg.CounterFunc(k.Series, k.Help, cfg.Labels, func() float64 { return float64(e.Total(k)) })
		}
		e.n[k.id] = n
	}
	for _, k := range kinds {
		if k.Also != nil && e.n[k.id] == nil {
			e.n[k.id] = e.n[k.Also.id]
		} else if k.Also != nil {
			e.also[k.id] = e.n[k.Also.id]
		}
	}
	if cfg.Verbose {
		e.stop = cfg.Ring.Tee(cfg.Logf)
	}
	return e
}

// Registry returns the registry the table's series are in, for export.
func (e *Events) Registry() *Registry { return e.reg }

// Ring returns the trace ring notes are recorded in (nil: none).
func (e *Events) Ring() *TraceRing { return e.cfg.Ring }

// Close flushes and stops the Verbose tee.
func (e *Events) Close() {
	if e.stop != nil {
		e.stop()
	}
}

// Count adds one incident of kind k on agent (-1: unattributed).
//
//swift:hotpath
func (e *Events) Count(k *EventKind, agent int) { e.Add(k, agent, 1) }

// Add adds n to kind k's count on agent in one atomic add (two with an
// Also target).
//
//swift:hotpath
func (e *Events) Add(k *EventKind, agent int, n int64) {
	e.n[k.id][agent+1].Add(n)
	if also := e.also[k.id]; also != nil {
		also[agent+1].Add(n)
	}
}

// Note reports one incident of kind k on agent (-1: unattributed): it is
// counted, recorded in the ring, marked and noted on sp (nil: none) as
// "read timeout agent 2: <msg>" and, for a logged kind, printed through
// Logf synchronously.
func (e *Events) Note(k *EventKind, agent int, sp *Span, format string, args ...any) {
	e.Count(k, agent)
	msg := fmt.Sprintf(format, args...) //lint:allow hotalloc an incident, not a packet: its message is formatted once
	if e.cfg.Ring != nil {
		e.cfg.Ring.Emit(Event{Layer: e.cfg.Layer, Kind: k.Trace, Agent: agent, Msg: msg, Logged: k.Logged})
	}
	if k.Retry {
		sp.MarkRetry()
	}
	if k.Fault {
		sp.MarkFault()
	}
	what := strings.ReplaceAll(k.Trace, "_", " ")
	if agent >= 0 {
		what += " agent " + strconv.Itoa(agent) //lint:allow hotalloc an incident, not a packet
	}
	sp.Annotate("%s: %s", what, msg) //lint:allow hotalloc an incident, not a packet
	if k.Logged {
		e.cfg.Logf("%s: %s: %s", e.cfg.Layer, what, msg) //lint:allow hotalloc an incident, not a packet
	}
}

// Load returns kind k's count on agent (-1: unattributed).
func (e *Events) Load(k *EventKind, agent int) int64 { return e.n[k.id][agent+1].Load() }

// Total returns kind k's count over every slot.
func (e *Events) Total(k *EventKind) (n int64) {
	for _, c := range e.n[k.id] {
		n += c.Load()
	}
	return n
}
