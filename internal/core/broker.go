package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"swift/internal/backoff"
	"swift/internal/mediator"
	"swift/internal/obs"
)

// MediatorEndpoint is one mediator replica as the client sees it. Both
// *mediator.Mediator (in-process) and *medrpc.Client (wire) satisfy it,
// so the failover logic is transport-agnostic.
type MediatorEndpoint interface {
	Name() string
	// Admit and RenewSession take the caller's span context: a wire
	// stub carries it to the replica; an in-process replica is covered
	// by the caller's span already.
	Admit(req mediator.Requirements, ctx obs.SpanContext) (*mediator.SessionRecord, error)
	RenewSession(rec mediator.SessionRecord, ctx obs.SpanContext) (string, error)
	CloseSession(id uint64) error
	// CacheSync runs one cache-coherence round for session id.
	CacheSync(id uint64, cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error)
	Status() (mediator.ReplicaStatus, error)
}

// Broker errors.
var (
	// ErrNoMediatorSession is returned by Renew/CloseSession before a
	// session has been opened (or after it was closed).
	ErrNoMediatorSession = errors.New("core: no mediator session")
	// ErrMediatorsDown is returned when every replica failed an
	// operation across the whole retry budget.
	ErrMediatorsDown = errors.New("core: all mediator replicas failed")
)

// BrokerConfig configures a MediatorBroker.
type BrokerConfig struct {
	// Endpoints are the mediator replicas, in any order; the broker
	// derives the per-key placement order itself.
	Endpoints []MediatorEndpoint
	// Key is the client's placement key: it decides the home replica and
	// the failover sequence. Empty falls back to "client".
	Key string
	// RetryTimeout is the pause before re-walking the whole replica set
	// after every endpoint failed once (default 50ms); it doubles per
	// walk, capped at maxWalkPause, with walkAttempts full walks before
	// giving up.
	RetryTimeout time.Duration
	// Sleep implements the backoff pause (default time.Sleep); tests
	// inject a fake.
	Sleep func(time.Duration)
	Logf  func(format string, args ...any)
	// Obs, when non-nil, receives the broker's failover counters; nil
	// keeps them in a private registry.
	Obs *obs.Registry
	// Tracer, when non-nil, mints spans for the admit/renew/close walks,
	// so mediator failovers show up in the client's op traces.
	Tracer *obs.Tracer
}

// A broker operation walks the replica set at most walkAttempts times,
// the pause between walks doubling from RetryTimeout up to maxWalkPause.
const (
	walkAttempts = 3
	maxWalkPause = time.Second
)

// MediatorBroker is the client-side mediator failover layer: it opens a
// session against the key's home replica, heartbeats it, and — when the
// home stops answering — rotates through the surviving replicas in
// placement order, re-targeting renewals (or re-adopting the session from
// the record the client holds) so a mediator crash or drain never costs
// the client its reservations.
type MediatorBroker struct {
	cfg   BrokerConfig
	bo    *backoff.Policy    // walk-retry backoff schedule
	order []MediatorEndpoint // placement order for cfg.Key

	mu  sync.Mutex
	rec *mediator.SessionRecord // guarded by mu; rec.Home holds the lease

	ev *obs.Events // from brokerEvents; no trace ring, no agent slots
}

// brokerEvents is the broker's event table. Its log lines read "swift:
// mediator failover: med-a -> med-b". A drain handoff counts as a
// failover; a draining replica's refusal is only noted on the span.
var (
	brokerEvents   obs.EventTable
	evMedRetry     = brokerEvents.Kind(obs.EventKind{Series: "swift_client_mediator_retries_total", Help: "Full replica-set walks repeated after every replica failed once."})
	evMedPaced     = brokerEvents.Kind(obs.EventKind{Trace: "mediator_paced", Retry: true, Logged: true, Series: "swift_client_mediator_paced_total", Help: "Admission attempts paced by a mediator's overload retry-after hint."})
	evMedFailover  = brokerEvents.Kind(obs.EventKind{Trace: "mediator_failover", Retry: true, Logged: true, Series: "swift_client_mediator_failovers_total", Help: "Times the client re-targeted its mediator session to a different replica."})
	evMedHandoff   = brokerEvents.Kind(obs.EventKind{Trace: "mediator_handoff", Retry: true, Logged: true, Also: evMedFailover})
	evMedError     = brokerEvents.Kind(obs.EventKind{Trace: "mediator_error", Retry: true, Logged: true})
	evMedDraining  = brokerEvents.Kind(obs.EventKind{Trace: "mediator_draining", Retry: true})
	evMedSurvivor  = brokerEvents.Kind(obs.EventKind{Trace: "mediator_survivor", Retry: true})
	evMedRenewFail = brokerEvents.Kind(obs.EventKind{Trace: "mediator_heartbeat", Logged: true})
)

// NewMediatorBroker validates the replica set and derives the placement
// order for the broker's key.
func NewMediatorBroker(cfg BrokerConfig) (*MediatorBroker, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("core: broker needs at least one mediator endpoint")
	}
	if cfg.Key == "" {
		cfg.Key = "client"
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 50 * time.Millisecond
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	byName := make(map[string]MediatorEndpoint, len(cfg.Endpoints))
	names := make([]string, 0, len(cfg.Endpoints))
	for _, ep := range cfg.Endpoints {
		if _, dup := byName[ep.Name()]; dup {
			return nil, fmt.Errorf("core: duplicate mediator replica name %q", ep.Name())
		}
		byName[ep.Name()] = ep
		names = append(names, ep.Name())
	}
	b := &MediatorBroker{cfg: cfg, bo: backoff.New(cfg.RetryTimeout, maxWalkPause)}
	for _, name := range mediator.PlaceOrder(cfg.Key, names) {
		b.order = append(b.order, byName[name])
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	b.ev = obs.NewEvents(reg, obs.EventConfig{Layer: "swift", Table: &brokerEvents, Logf: cfg.Logf})
	return b, nil
}

// candidates returns the endpoints to try, the current home first and
// the rest in placement order.
func (b *MediatorBroker) candidates(home string) []MediatorEndpoint {
	if home == "" {
		return b.order
	}
	out := make([]MediatorEndpoint, 0, len(b.order))
	for _, ep := range b.order {
		if ep.Name() == home {
			out = append(out, ep)
		}
	}
	for _, ep := range b.order {
		if ep.Name() != home {
			out = append(out, ep)
		}
	}
	return out
}

// walk runs one broker operation over the replica set: home first (the
// key's placement home before there is a session), then the others in
// placement order, up to walkAttempts full walks, each repeat counted and
// preceded by a backed-off pause. try is the operation on one endpoint;
// nil ends the walk. What a failed try means is decided here, once for
// every operation:
//
//   - ErrUnsatisfiable and ErrUnknownSession end the walk with that
//     error: every replica runs the same admission arithmetic, and a
//     session the federation has forgotten is gone from all of it.
//   - ErrOverloaded is pacing, not failure: the replica is up but
//     shedding, so the walk sleeps its retry-after hint (jittered, so
//     paced clients do not re-converge; the walk's backoff when there is
//     none) and asks the same endpoint again, rather than rotating away
//     from the session's home for a transient surge.
//   - Anything else is noted (logged, but for a draining replica's
//     refusal), and the walk moves on.
//
// A walk that runs out ends with ErrMediatorsDown wrapping the last
// failure; sp carries the error a walk ends with.
func (b *MediatorBroker) walk(home, op string, sp *obs.Span, try func(MediatorEndpoint) error) error {
	var err error
	for pass := 1; pass <= walkAttempts; pass++ {
		if pass > 1 {
			b.ev.Count(evMedRetry, -1)
			b.cfg.Sleep(b.bo.Delay(pass - 1))
		}
		for _, ep := range b.candidates(home) {
			err = try(ep)
			if errors.Is(err, mediator.ErrOverloaded) {
				pause := b.bo.Delay(pass - 1)
				var oe *mediator.OverloadedError
				if errors.As(err, &oe) && oe.RetryAfter > 0 {
					pause = b.bo.Jitter(oe.RetryAfter)
				}
				b.ev.Note(evMedPaced, -1, sp, "%s on %s for %v: %v", op, ep.Name(), pause, err)
				b.cfg.Sleep(pause)
				err = try(ep)
			}
			switch {
			case err == nil:
				return nil
			case errors.Is(err, mediator.ErrUnsatisfiable), errors.Is(err, mediator.ErrUnknownSession):
				sp.SetError(err)
				return err
			}
			k := evMedError
			if errors.Is(err, mediator.ErrDraining) {
				k = evMedDraining
			}
			b.ev.Note(k, -1, sp, "%s on %s: %v", op, ep.Name(), err)
		}
	}
	err = fmt.Errorf("%w: %s: %w", ErrMediatorsDown, op, err)
	sp.SetError(err)
	return err
}

// setHome records the session's home, noting a failover (or, when the
// old home answered, a drain handoff) on sp when it moved.
func (b *MediatorBroker) setHome(sp *obs.Span, home string, viaFailure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rec == nil {
		return // closed while the renewal ran
	}
	if home != b.rec.Home {
		k := evMedHandoff
		if viaFailure {
			k = evMedFailover
		}
		b.ev.Note(k, -1, sp, "%s -> %s", b.rec.Home, home)
	}
	b.rec.Home = home
}

// OpenSession admits a session on the key's home replica, failing over
// through the placement order. A genuine admission rejection
// (ErrUnsatisfiable) is returned immediately — every replica runs the
// same admission arithmetic, so rotating cannot help. The walk's span
// context rides each admission, so a wire replica's admission span
// joins the walk's trace.
func (b *MediatorBroker) OpenSession(req mediator.Requirements) (*mediator.SessionRecord, error) {
	sp := b.cfg.Tracer.StartOp("core", "med_admit")
	defer sp.Finish()
	if req.Key == "" {
		req.Key = b.cfg.Key
	}
	var out mediator.SessionRecord
	err := b.walk("", "open", sp, func(ep MediatorEndpoint) error {
		rec, err := ep.Admit(req, sp.Context())
		if err != nil {
			return err
		}
		sp.Annotate("admitted by %s", ep.Name())
		out = *rec
		if out.Home == "" {
			out.Home = ep.Name()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	cp := out
	b.rec = &cp
	b.mu.Unlock()
	return &out, nil
}

// Renew heartbeats the session: the home replica first, then — on any
// failure — the surviving replicas in placement order, each of which
// will renew its mirrored copy or adopt the session outright from the
// record the broker carries. A healthy home that answers with a
// different replica name (because it is draining and handed the session
// off) re-targets the broker without counting a failover.
func (b *MediatorBroker) Renew() error {
	rec := b.Record()
	if rec == nil {
		return ErrNoMediatorSession
	}
	home := rec.Home
	sp := b.cfg.Tracer.StartOp("core", "med_renew")
	defer sp.Finish()
	err := b.walk(home, fmt.Sprintf("renew session %d", rec.ID), sp, func(ep MediatorEndpoint) error {
		newHome, err := ep.RenewSession(*rec, sp.Context())
		if err != nil {
			return err
		}
		if newHome == "" {
			newHome = ep.Name()
		}
		b.setHome(sp, newHome, ep.Name() != home)
		return nil
	})
	if err != nil {
		b.ev.Note(evMedRenewFail, -1, sp, "%v", err)
	}
	return err
}

// Heartbeat is Renew shaped for MonitorConfig.Heartbeat: failures are
// logged and counted (RenewFailures) by Renew rather than returned.
func (b *MediatorBroker) Heartbeat() { _ = b.Renew() }

// CloseSession releases the session, rotating to a survivor when the
// home replica is gone (the survivor holds a mirrored copy). Closing
// with no session open is a no-op. A close that fails everywhere is left
// to the lease janitor, which reaps the reservations within one TTL.
func (b *MediatorBroker) CloseSession() error {
	b.mu.Lock()
	rec := b.rec
	b.rec = nil
	b.mu.Unlock()
	if rec == nil {
		return nil
	}
	home := rec.Home
	sp := b.cfg.Tracer.StartOp("core", "med_close")
	defer sp.Finish()
	return b.walk(home, fmt.Sprintf("close session %d", rec.ID), sp, func(ep MediatorEndpoint) error {
		err := ep.CloseSession(rec.ID)
		if err == nil && ep.Name() != home {
			b.ev.Note(evMedSurvivor, -1, sp, "session %d closed via %s", rec.ID, ep.Name())
		}
		return err
	})
}

// CacheSync runs one cache-coherence round for the broker's session,
// shaped for core.Config.CacheSync. The home replica is tried first,
// then the survivors in placement order — any replica can serve the
// round, since generation bumps mirror across the federation. A session
// nobody knows surfaces ErrUnknownSession so the client drops its lease
// (and its cached bytes with it).
func (b *MediatorBroker) CacheSync(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
	rec := b.Record()
	if rec == nil {
		return nil, ErrNoMediatorSession
	}
	var stale []mediator.CachedObject
	err := b.walk(rec.Home, fmt.Sprintf("cache sync session %d", rec.ID), nil, func(ep MediatorEndpoint) (err error) {
		stale, err = ep.CacheSync(rec.ID, cached, written)
		return err
	})
	return stale, err
}

// Record returns a copy of the session record the broker holds, or nil
// before OpenSession.
func (b *MediatorBroker) Record() *mediator.SessionRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rec == nil {
		return nil
	}
	cp := *b.rec
	return &cp
}

// Home returns the replica currently holding the session's lease.
func (b *MediatorBroker) Home() string {
	if rec := b.Record(); rec != nil {
		return rec.Home
	}
	return ""
}

// Failovers returns how many times the session re-targeted to a
// different replica (failovers and drain handoffs).
func (b *MediatorBroker) Failovers() int64 { return b.ev.Load(evMedFailover, -1) }

// RenewFailures returns how many renew rounds exhausted every replica.
func (b *MediatorBroker) RenewFailures() int64 { return b.ev.Load(evMedRenewFail, -1) }
