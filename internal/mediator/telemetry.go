package mediator

import (
	"strconv"

	"swift/internal/obs"
)

// events is the mediator's event table: each incident is counted by one
// Count call. An overload shed is also a rejection, and an adoption
// (failover) also renews the lease.
var (
	events           obs.EventTable
	evAdmit          = events.Kind(obs.EventKind{Series: "swift_mediator_admits_total", Help: "Sessions admitted."})
	evReject         = events.Kind(obs.EventKind{Series: "swift_mediator_rejects_total", Help: "Sessions rejected as unsatisfiable."})
	evOverloadReject = events.Kind(obs.EventKind{Also: evReject, Series: "swift_mediator_overload_rejects_total", Help: "New sessions shed because reserved ratios exceeded the admission watermark."})
	evClose          = events.Kind(obs.EventKind{Series: "swift_mediator_closes_total", Help: "Sessions closed."})
	evRenewal        = events.Kind(obs.EventKind{Series: "swift_mediator_lease_renewals_total", Help: "Session lease heartbeats honoured."})
	evExpiration     = events.Kind(obs.EventKind{Series: "swift_mediator_lease_expirations_total", Help: "Sessions reaped because their lease lapsed."})
	evFailover       = events.Kind(obs.EventKind{Also: evRenewal, Series: "swift_mediator_failovers_total", Help: "Sessions adopted after their home replica failed and the client re-targeted."})
	evHandoff        = events.Kind(obs.EventKind{Series: "swift_mediator_handoffs_total", Help: "Live sessions handed to a peer replica by Drain."})
	evMirrorSent     = events.Kind(obs.EventKind{Series: "swift_mediator_mirrors_sent_total", Help: "Session replication updates delivered to peer replicas."})
	evMirrorApplied  = events.Kind(obs.EventKind{Series: "swift_mediator_mirrors_applied_total", Help: "Session replication updates applied from peer replicas."})
	evMirrorDrop     = events.Kind(obs.EventKind{Series: "swift_mediator_mirrors_dropped_total", Help: "Session replication updates dropped (full peer queue) or refused by a peer."})
	evCacheSync      = events.Kind(obs.EventKind{Series: "swift_mediator_cache_syncs_total", Help: "Client cache-coherence rounds served over the lease channel."})
	evWriteDeclared  = events.Kind(obs.EventKind{Series: "swift_mediator_cache_writes_declared_total", Help: "Object write declarations received (each bumps the object's generation)."})
	evInvalidation   = events.Kind(obs.EventKind{Series: "swift_mediator_cache_invalidations_total", Help: "Stale cached objects reported back to clients for invalidation."})
)

// initTelemetry registers the mediator's instruments. The reservation
// gauges are GaugeFuncs over the live load tables, so exports always see
// the current utilization without a second bookkeeping path. A federated
// replica labels every series with its name; an unfederated one exports
// the pre-federation format, unlabeled.
func (m *Mediator) initTelemetry(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var l obs.Labels
	if m.cfg.Self != "" {
		l = obs.Labels{"replica": m.cfg.Self}
	}
	m.tel = obs.NewEvents(reg, obs.EventConfig{Layer: "mediator", Table: &events, Labels: l})
	reg.GaugeFunc("swift_mediator_sessions", "Active reserved sessions known to this replica.",
		l, func() float64 { return float64(m.Sessions()) })
	reg.GaugeFunc("swift_mediator_home_sessions",
		"Active sessions this replica is the lease home for.",
		l, func() float64 {
			st, err := m.Status()
			if err != nil {
				return 0
			}
			return float64(st.HomeSessions)
		})
	for i := range m.cfg.Agents {
		cap := m.cfg.Agents[i].Rate
		reg.GaugeFunc("swift_mediator_agent_reserved_ratio",
			"Fraction of the agent's deliverable rate currently reserved.",
			l.With("agent", strconv.Itoa(i)), func() float64 {
				if cap <= 0 {
					return 0
				}
				return m.AgentLoad(i) / cap
			})
	}
	for j := range m.cfg.Nets {
		cap := m.cfg.Nets[j].Capacity
		reg.GaugeFunc("swift_mediator_net_reserved_ratio",
			"Fraction of the interconnect's capacity currently reserved.",
			l.With("net", m.cfg.Nets[j].Name), func() float64 {
				if cap <= 0 {
					return 0
				}
				return m.NetLoad(j) / cap
			})
	}
}

// Obs returns the mediator's metric registry, for export.
func (m *Mediator) Obs() *obs.Registry { return m.tel.Registry() }
