package medrpc

import (
	"errors"
	"testing"
	"time"

	"swift/internal/mediator"
	"swift/internal/obs"
)

// TestCacheSyncRoundTrips drives the TMedInvalidate exchange over the
// wire: declared writes come back as generation adoptions, a stale
// cached image is named in the reply, and a current one is not.
func TestCacheSyncRoundTrips(t *testing.T) {
	tier := newTestTier(t, 1, 0)
	c := tier.clients[0]

	wrec, err := c.Admit(mediator.Requirements{Rate: 100e3, Key: "writer"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit writer: %v", err)
	}
	rrec, err := c.Admit(mediator.Requirements{Rate: 100e3, Key: "reader"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit reader: %v", err)
	}

	// The writer declares a write: the reply echoes the object at its
	// new generation so the writer adopts it instead of invalidating.
	stale, err := c.CacheSync(wrec.ID, nil, []string{"video"})
	if err != nil {
		t.Fatalf("writer sync: %v", err)
	}
	if len(stale) != 1 || stale[0].Name != "video" || stale[0].Gen != 1 {
		t.Fatalf("writer reply = %+v, want video@1", stale)
	}

	// A reader caching generation 0 is told its image is stale.
	stale, err = c.CacheSync(rrec.ID, []mediator.CachedObject{{Name: "video", Gen: 0}}, nil)
	if err != nil {
		t.Fatalf("reader sync: %v", err)
	}
	if len(stale) != 1 || stale[0].Name != "video" || stale[0].Gen != 1 {
		t.Fatalf("reader reply = %+v, want video@1", stale)
	}

	// Caught up: a current image draws no invalidation.
	stale, err = c.CacheSync(rrec.ID, []mediator.CachedObject{{Name: "video", Gen: 1}}, nil)
	if err != nil {
		t.Fatalf("caught-up sync: %v", err)
	}
	if len(stale) != 0 {
		t.Fatalf("caught-up reply = %+v, want empty", stale)
	}
}

// TestCacheSyncUnknownSessionSentinel pins that ErrUnknownSession
// survives the wire — the client side relies on errors.Is to drop its
// lease rather than retrying forever.
func TestCacheSyncUnknownSessionSentinel(t *testing.T) {
	tier := newTestTier(t, 1, 0)
	_, err := tier.clients[0].CacheSync(999, nil, []string{"video"})
	if !errors.Is(err, mediator.ErrUnknownSession) {
		t.Fatalf("err = %v, want ErrUnknownSession", err)
	}
}

// TestCacheSyncGenerationCrossesMirrors pins the federation story: a
// write declared on one replica invalidates a reader homed on a peer,
// once the asynchronous mirror lands.
func TestCacheSyncGenerationCrossesMirrors(t *testing.T) {
	tier := newTestTier(t, 2, 0)
	wc, rc := tier.clients[0], tier.clients[1]

	wrec, err := wc.Admit(mediator.Requirements{Rate: 100e3, Key: "w"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit writer: %v", err)
	}
	rrec, err := rc.Admit(mediator.Requirements{Rate: 100e3, Key: "r"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit reader: %v", err)
	}
	if _, err := wc.CacheSync(wrec.ID, nil, []string{"shared"}); err != nil {
		t.Fatalf("writer sync: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		stale, err := rc.CacheSync(rrec.ID, []mediator.CachedObject{{Name: "shared", Gen: 0}}, nil)
		if err != nil {
			t.Fatalf("reader sync: %v", err)
		}
		if len(stale) == 1 && stale[0].Name == "shared" && stale[0].Gen >= 1 {
			return // the mirror landed; the peer-homed reader heard the write
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation bump never crossed the mirror channel (last reply %+v)", stale)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
