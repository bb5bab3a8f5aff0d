package mediator

// Cache coherence over the lease channel.
//
// The mediator keeps a per-object write generation: a counter bumped every
// time any session declares that it moved the object's bytes on the
// storage agents (a write-through or a write-behind flush). Clients ride a
// CacheSync exchange on their existing renew/heartbeat cadence: they
// declare the objects they cache (with the generation their image
// reflects) plus the objects they wrote since the last round, and the
// reply names every cached object whose generation has moved past the
// client's — those images are stale and must be dropped.
//
// A session's own declared writes are special-cased: the writer's cache
// absorbed those bytes on the way out, so the reply hands it the new
// generation to adopt rather than an invalidation. Two sessions writing
// the same object through different home replicas can mint the same
// generation number within one mirror round-trip; the max-merge keeps the
// counters monotonic and the next declaration from either writer moves
// the generation past both, so staleness is bounded by one heartbeat.
//
// Generation bumps travel to the peers as MirrorInvalidate updates, so a
// reader homed on a peer replica hears about a writer homed here. The
// writer's round delivers them before it returns (see publish): a reader
// round that starts after the writer's returned sees the write, wherever
// the two sessions are homed. The generation map is deliberately not rebuilt on restart: a restarted
// replica max-merges generations back from its peers' mirrors, and a
// client whose sync round fails conservatively keeps redeclaring its
// written set until a round succeeds.

// CachedObject names one object a client caches (or was told to drop)
// together with the mediator write-generation its cached image reflects.
type CachedObject struct {
	Name string
	Gen  uint64
}

// CacheSync is one client's coherence round, riding its heartbeat: cached
// declares the session's resident objects and the generations their
// images reflect, written declares the objects whose agent-side bytes
// this client moved since its previous successful round. The reply lists
// the cached objects that are stale — plus the client's own written
// objects with their new generations, which the writer adopts instead of
// invalidating (its cache absorbed those bytes on the way out). An
// unknown or expired session gets ErrUnknownSession: its lease is gone
// and with it any claim to coherent caching.
func (m *Mediator) CacheSync(id uint64, cached []CachedObject, written []string) ([]CachedObject, error) {
	m.mu.Lock()
	out, bumps, err := m.cacheSyncLocked(id, cached, written)
	links := m.links
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.publish(links, bumps)
	return out, nil
}

// cacheSyncLocked is CacheSync's bookkeeping; m.mu held. It returns the
// reply and the generation bumps the round minted, for publish.
func (m *Mediator) cacheSyncLocked(id uint64, cached []CachedObject, written []string) ([]CachedObject, []MirrorUpdate, error) {
	if m.killed {
		return nil, nil, ErrReplicaDown
	}
	m.expireLocked()
	if m.sessions[id] == nil {
		return nil, nil, ErrUnknownSession
	}
	m.tel.Count(evCacheSync, -1)

	wrote := make(map[string]bool, len(written))
	var bumps []MirrorUpdate
	for _, name := range written {
		wrote[name] = true
		if m.objGen == nil {
			m.objGen = make(map[string]uint64)
		}
		m.objGen[name]++
		m.tel.Count(evWriteDeclared, -1)
		bumps = append(bumps, MirrorUpdate{Op: MirrorInvalidate, From: m.self,
			Rec: SessionRecord{ID: m.objGen[name], Key: name, Home: m.selfName()}})
	}

	var out []CachedObject
	for _, co := range cached {
		if g := m.objGen[co.Name]; g > co.Gen {
			out = append(out, CachedObject{Name: co.Name, Gen: g})
			if !wrote[co.Name] {
				m.tel.Count(evInvalidation, -1)
			}
		}
	}
	// A written object the client does not (or no longer) caches still
	// needs its new generation echoed back, so a writer that re-opens the
	// object later starts from the generation its own write minted.
	for _, name := range written {
		if g := m.objGen[name]; g > 0 && !containsObject(out, name) {
			out = append(out, CachedObject{Name: name, Gen: g})
		}
	}
	return out, bumps, nil
}

// publish delivers a writer round's generation bumps to every peer before
// the round returns, outside m.mu (a peer may be publishing to this
// replica at the same time). A peer whose latest delivery failed is not
// waited on, so a dead peer costs a writer at most one delivery attempt:
// the bump is queued on its link like any other mirror, and a restarted
// replica reconciles generations from a live peer (Federation.Restart).
func (m *Mediator) publish(links []*peerLink, bumps []MirrorUpdate) {
	for _, l := range links {
		for _, u := range bumps {
			if l.down.Load() || !m.deliver(l, u) {
				m.enqueue(l, u)
			}
		}
	}
}

// containsObject reports whether out already names the object.
func containsObject(out []CachedObject, name string) bool {
	for _, co := range out {
		if co.Name == name {
			return true
		}
	}
	return false
}

// ObjectGen returns the current write generation of one object (0 when
// never written through a coherence round) — a test and operator hook.
func (m *Mediator) ObjectGen(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.objGen[name]
}

// GenSnapshot copies the object write-generation table, for peer
// reconciliation after a replica restart (the in-memory table dies with
// the process; a restarted replica that answered "fresh" for an object a
// peer knows was written would let a reader serve stale bytes).
func (m *Mediator) GenSnapshot() (map[string]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return nil, ErrReplicaDown
	}
	out := make(map[string]uint64, len(m.objGen))
	for name, gen := range m.objGen {
		out[name] = gen
	}
	return out, nil
}

// SyncGens max-merges a peer's generation snapshot — the restart
// reconciliation path, paired with SyncFrom for sessions.
func (m *Mediator) SyncGens(gens map[string]uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return ErrReplicaDown
	}
	for name, gen := range gens {
		m.applyInvalidateLocked(name, gen)
	}
	return nil
}

// applyInvalidateLocked max-merges a mirrored generation bump; m.mu held.
// Max-merge keeps the counter monotonic when mirrors arrive out of order
// or a restarted replica resyncs from a peer.
func (m *Mediator) applyInvalidateLocked(name string, gen uint64) {
	if m.objGen == nil {
		m.objGen = make(map[string]uint64)
	}
	if gen > m.objGen[name] {
		m.objGen[name] = gen
	}
}
