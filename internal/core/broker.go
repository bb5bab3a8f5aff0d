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
	Admit(req mediator.Requirements) (*mediator.SessionRecord, error)
	RenewSession(rec mediator.SessionRecord) (string, error)
	CloseSession(id uint64) error
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
	// walk, capped at MaxRetryTimeout (default 1s), with Attempts
	// (default 3) full walks before giving up.
	RetryTimeout    time.Duration
	MaxRetryTimeout time.Duration
	Attempts        int
	// Sleep implements the backoff pause (default time.Sleep); tests
	// inject a fake.
	Sleep func(time.Duration)
	Logf  func(format string, args ...any)
	// Obs, when non-nil, receives the broker's failover counters.
	Obs *obs.Registry
	// Tracer, when non-nil, mints spans for the admit/renew/close walks,
	// so mediator failovers show up in the client's op traces.
	Tracer *obs.Tracer
}

// tracedAdmitter and tracedRenewer are optional upgrades of
// MediatorEndpoint: wire transports implement them to carry the trace
// context on TMedOpen/TMedRenew packets, so the serving replica's span
// joins the client's trace. In-process endpoints need not bother — with a
// shared tracer their spans land in the same collector regardless.
type tracedAdmitter interface {
	AdmitTraced(req mediator.Requirements, ctx obs.SpanContext) (*mediator.SessionRecord, error)
}

type tracedRenewer interface {
	RenewSessionTraced(rec mediator.SessionRecord, ctx obs.SpanContext) (string, error)
}

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

	mu        sync.Mutex
	rec       *mediator.SessionRecord // guarded by mu
	home      string                  // guarded by mu
	failovers int64                   // guarded by mu
	renewErrs int64                   // guarded by mu

	telFailovers *obs.Counter
	telRetries   *obs.Counter
	telPaced     *obs.Counter
}

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
	if cfg.MaxRetryTimeout <= 0 {
		cfg.MaxRetryTimeout = time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
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
	b := &MediatorBroker{cfg: cfg, bo: backoff.New(cfg.RetryTimeout, cfg.MaxRetryTimeout)}
	for _, name := range mediator.PlaceOrder(cfg.Key, names) {
		b.order = append(b.order, byName[name])
	}
	if reg := cfg.Obs; reg != nil {
		b.telFailovers = reg.Counter("swift_client_mediator_failovers_total",
			"Times the client re-targeted its mediator session to a different replica.", nil)
		b.telRetries = reg.Counter("swift_client_mediator_retries_total",
			"Full replica-set walks repeated after every replica failed once.", nil)
		b.telPaced = reg.Counter("swift_client_mediator_paced_total",
			"Admission attempts paced by a mediator's overload retry-after hint.", nil)
	}
	return b, nil
}

// span roots a broker span, joining parent when it names a trace; nil
// tracer yields a nil (no-op) span.
func (b *MediatorBroker) span(parent obs.SpanContext, name string) *obs.Span {
	if parent.Valid() {
		return b.cfg.Tracer.StartRemote(parent, "core", name, -1)
	}
	return b.cfg.Tracer.StartOp("core", name)
}

// admitVia runs one admit attempt against ep, propagating the span
// context when the endpoint's transport supports it.
func admitVia(ep MediatorEndpoint, req mediator.Requirements, sp *obs.Span) (*mediator.SessionRecord, error) {
	if ta, ok := ep.(tracedAdmitter); ok {
		if ctx := sp.Context(); ctx.Valid() {
			return ta.AdmitTraced(req, ctx)
		}
	}
	return ep.Admit(req)
}

// renewVia runs one renew attempt against ep, propagating the span
// context when the endpoint's transport supports it.
func renewVia(ep MediatorEndpoint, rec mediator.SessionRecord, sp *obs.Span) (string, error) {
	if tr, ok := ep.(tracedRenewer); ok {
		if ctx := sp.Context(); ctx.Valid() {
			return tr.RenewSessionTraced(rec, ctx)
		}
	}
	return ep.RenewSession(rec)
}

// backoff is the pause before retry walk number attempt (1-based):
// capped exponential with ±25% jitter.
func (b *MediatorBroker) backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	return b.bo.Delay(attempt - 1)
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

// setHome records the session's home, counting a failover when it moved.
func (b *MediatorBroker) setHome(home string, viaFailure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.home != "" && home != b.home {
		b.failovers++
		if viaFailure {
			b.cfg.Logf("swift: mediator failover: %s -> %s", b.home, home)
		} else {
			b.cfg.Logf("swift: mediator handoff: %s -> %s", b.home, home)
		}
		if b.telFailovers != nil {
			b.telFailovers.Inc()
		}
	}
	b.home = home
	if b.rec != nil {
		b.rec.Home = home
	}
}

// OpenSession admits a session on the key's home replica, failing over
// through the placement order. A genuine admission rejection
// (ErrUnsatisfiable) is returned immediately — every replica runs the
// same admission arithmetic, so rotating cannot help.
func (b *MediatorBroker) OpenSession(req mediator.Requirements) (*mediator.SessionRecord, error) {
	return b.OpenSessionTraced(req, obs.SpanContext{})
}

// OpenSessionTraced is OpenSession with the admission walk parented under
// the caller's span (the facade's mount span), so the admit — and any
// replica failover inside it — appears in the op's trace.
func (b *MediatorBroker) OpenSessionTraced(req mediator.Requirements, parent obs.SpanContext) (*mediator.SessionRecord, error) {
	sp := b.span(parent, "med_admit")
	defer sp.Finish()
	if req.Key == "" {
		req.Key = b.cfg.Key
	}
	var lastErr error
	for attempt := 1; attempt <= b.cfg.Attempts; attempt++ {
		if attempt > 1 {
			if b.telRetries != nil {
				b.telRetries.Inc()
			}
			b.cfg.Sleep(b.backoff(attempt))
		}
		for _, ep := range b.order {
			rec, err := admitVia(ep, req, sp)
			if err == nil {
				sp.Annotate("admitted by %s", ep.Name())
				b.mu.Lock()
				cp := *rec
				b.rec = &cp
				b.home = rec.Home
				if b.home == "" {
					b.home = ep.Name()
				}
				b.mu.Unlock()
				out := *rec
				return &out, nil
			}
			if errors.Is(err, mediator.ErrUnsatisfiable) {
				sp.SetError(err)
				return nil, err
			}
			lastErr = err
			if errors.Is(err, mediator.ErrOverloaded) {
				// The replica is up but shedding: honor its pacing hint
				// (jittered, so paced clients don't re-converge) and try
				// again. Not a replica failure — don't rotate away from
				// the session's placement home for a transient surge.
				pause := b.backoff(attempt)
				var oe *mediator.OverloadedError
				if errors.As(err, &oe) && oe.RetryAfter > 0 {
					pause = b.bo.Jitter(oe.RetryAfter)
				}
				if b.telPaced != nil {
					b.telPaced.Inc()
				}
				sp.MarkRetry()
				sp.Annotate("admit on %s paced %v: %v", ep.Name(), pause, err)
				b.cfg.Logf("swift: mediator open on %s paced %v: %v", ep.Name(), pause, err)
				b.cfg.Sleep(pause)
				continue
			}
			sp.MarkRetry()
			sp.Annotate("admit on %s failed: %v", ep.Name(), err)
			b.cfg.Logf("swift: mediator open on %s: %v", ep.Name(), err)
		}
	}
	err := fmt.Errorf("%w: open: %w", ErrMediatorsDown, lastErr)
	sp.SetError(err)
	return nil, err
}

// Renew heartbeats the session: the home replica first, then — on any
// failure — the surviving replicas in placement order, each of which
// will renew its mirrored copy or adopt the session outright from the
// record the broker carries. A healthy home that answers with a
// different replica name (because it is draining and handed the session
// off) re-targets the broker without counting a failover.
func (b *MediatorBroker) Renew() error {
	b.mu.Lock()
	rec := b.rec
	home := b.home
	var recCopy mediator.SessionRecord
	if rec != nil {
		recCopy = *rec
	}
	b.mu.Unlock()
	if rec == nil {
		return ErrNoMediatorSession
	}
	sp := b.span(obs.SpanContext{}, "med_renew")
	defer sp.Finish()
	var lastErr error
	for attempt := 1; attempt <= b.cfg.Attempts; attempt++ {
		if attempt > 1 {
			if b.telRetries != nil {
				b.telRetries.Inc()
			}
			b.cfg.Sleep(b.backoff(attempt))
		}
		for _, ep := range b.candidates(home) {
			newHome, err := renewVia(ep, recCopy, sp)
			if err == nil {
				if newHome == "" {
					newHome = ep.Name()
				}
				if ep.Name() != home {
					// The session re-targeted: a failover (dead home) or a
					// drain handoff — either way worth keeping the trace.
					sp.MarkRetry()
					sp.Annotate("failover %s -> %s", home, newHome)
				}
				b.setHome(newHome, ep.Name() != home)
				return nil
			}
			lastErr = err
			sp.Annotate("renew on %s failed: %v", ep.Name(), err)
			if !errors.Is(err, mediator.ErrDraining) {
				b.cfg.Logf("swift: mediator renew on %s: %v", ep.Name(), err)
			}
		}
	}
	b.mu.Lock()
	b.renewErrs++
	b.mu.Unlock()
	err := fmt.Errorf("%w: renew session %d: %w", ErrMediatorsDown, recCopy.ID, lastErr)
	sp.SetError(err)
	return err
}

// Heartbeat is Renew shaped for MonitorConfig.Heartbeat: failures are logged
// and counted (RenewFailures) rather than returned.
func (b *MediatorBroker) Heartbeat() {
	if err := b.Renew(); err != nil && !errors.Is(err, ErrNoMediatorSession) {
		b.cfg.Logf("swift: mediator heartbeat: %v", err)
	}
}

// CloseSession releases the session, rotating to a survivor when the
// home replica is gone (the survivor holds a mirrored copy). Closing
// with no session open is a no-op.
func (b *MediatorBroker) CloseSession() error {
	b.mu.Lock()
	rec := b.rec
	home := b.home
	b.rec = nil
	b.home = ""
	b.mu.Unlock()
	if rec == nil {
		return nil
	}
	sp := b.span(obs.SpanContext{}, "med_close")
	defer sp.Finish()
	var lastErr error
	for attempt := 1; attempt <= b.cfg.Attempts; attempt++ {
		if attempt > 1 {
			b.cfg.Sleep(b.backoff(attempt))
		}
		for _, ep := range b.candidates(home) {
			err := ep.CloseSession(rec.ID)
			if err == nil {
				if ep.Name() != home {
					sp.MarkRetry()
					sp.Annotate("closed via survivor %s", ep.Name())
				}
				return nil
			}
			lastErr = err
		}
	}
	// The lease janitor will reap the reservations within one TTL.
	err := fmt.Errorf("%w: close session %d: %w", ErrMediatorsDown, rec.ID, lastErr)
	sp.SetError(err)
	return err
}

// coherenceSyncer is the optional endpoint upgrade for the cache
// coherence round: *mediator.Mediator (in-process) and *medrpc.Client
// (wire) both implement it; endpoints that don't are skipped.
type coherenceSyncer interface {
	CacheSync(id uint64, cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error)
}

// CacheSync runs one cache-coherence round for the broker's session,
// shaped for core.Config.CacheSync. The home replica is tried first,
// then the survivors in placement order — any replica can serve the
// round, since generation bumps mirror across the federation. A session
// nobody knows surfaces ErrUnknownSession so the client drops its lease
// (and its cached bytes with it).
func (b *MediatorBroker) CacheSync(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
	b.mu.Lock()
	rec := b.rec
	home := b.home
	var id uint64
	if rec != nil {
		id = rec.ID
	}
	b.mu.Unlock()
	if rec == nil {
		return nil, ErrNoMediatorSession
	}
	var lastErr error
	for _, ep := range b.candidates(home) {
		cs, ok := ep.(coherenceSyncer)
		if !ok {
			continue
		}
		stale, err := cs.CacheSync(id, cached, written)
		if err == nil {
			return stale, nil
		}
		if errors.Is(err, mediator.ErrUnknownSession) {
			return nil, err
		}
		lastErr = err
	}
	if lastErr == nil {
		return nil, ErrNoMediatorSession // no endpoint speaks coherence
	}
	return nil, fmt.Errorf("%w: cache sync session %d: %w", ErrMediatorsDown, id, lastErr)
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
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.home
}

// Failovers returns how many times the session re-targeted to a
// different replica (failovers and drain handoffs).
func (b *MediatorBroker) Failovers() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failovers
}

// RenewFailures returns how many renew rounds exhausted every replica.
func (b *MediatorBroker) RenewFailures() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.renewErrs
}

// Endpoints returns the replicas in placement order for the broker's key.
func (b *MediatorBroker) Endpoints() []MediatorEndpoint {
	return append([]MediatorEndpoint(nil), b.order...)
}
