package medrpc

import (
	"errors"
	"fmt"
	"strings"

	"sync/atomic"
	"time"

	"swift/internal/backoff"
	"swift/internal/mediator"
	"swift/internal/obs"
	"swift/internal/transport"
	"swift/internal/wire"
)

// ErrMediatorDown is returned when a replica stops answering within the
// client's retry budget.
var ErrMediatorDown = errors.New("medrpc: mediator not responding")

// An RPC's first retransmission timeout, doubling per retransmission up
// to the cap. Mediator RPCs fail fast by design: a dead replica must be
// detected well inside a lease TTL so the broker can rotate to a peer.
const (
	retryTimeout    = 50 * time.Millisecond
	maxRetryTimeout = 400 * time.Millisecond
)

// ClientConfig configures one replica's client stub.
type ClientConfig struct {
	Host transport.Host // local machine to open the endpoint on
	Name string         // replica name (placement identity)
	Addr string         // replica control address

	// Retries bounds an RPC: it gives up once the sum of the first
	// Retries+1 (default 5) unjittered waits has passed.
	Retries int
}

// Client is the wire stub for one mediator replica. It satisfies the
// client-side endpoint surface (Admit/RenewSession/CloseSession/Status)
// and mediator.Peer (Mirror), so replicas federate over the same stub
// clients use.
type Client struct {
	cfg   ClientConfig
	bo    *backoff.Policy
	reqID atomic.Uint32

	// rpcBudget is the deterministic total retry budget (unjittered sum
	// of the per-attempt timeouts): an RPC gives up when it has passed,
	// and each transmission carries what is left of it as its deadline so
	// the replica can skip work and suppress replies the client has
	// already given up on.
	rpcBudget time.Duration
}

// NewClient builds a stub for the replica at cfg.Addr. Each RPC opens an
// ephemeral endpoint, so concurrent RPCs (a heartbeat racing a status
// query) never serialize or interleave replies.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Retries <= 0 {
		cfg.Retries = 4
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Addr
	}
	c := &Client{cfg: cfg, bo: backoff.New(retryTimeout, maxRetryTimeout)}
	d := retryTimeout
	for range cfg.Retries + 1 {
		d = min(d, maxRetryTimeout)
		c.rpcBudget += d
		d *= 2
	}
	return c, nil
}

// Name returns the replica's placement name.
func (c *Client) Name() string { return c.cfg.Name }

// rpc sends one request under a fresh id on a fresh endpoint and waits
// for its reply, retransmitting on wire.Exchange's control schedule —
// the base wait, then doubling up to maxRetryTimeout — until rpcBudget
// has passed.
func (c *Client) rpc(req *wire.Packet) (*wire.Packet, error) {
	conn, err := c.cfg.Host.Listen("0")
	if err != nil {
		return nil, fmt.Errorf("medrpc: open endpoint: %w", err)
	}
	defer conn.Close()
	req.ReqID = c.reqID.Add(1)
	var out wire.Packet
	rc := c.bo.Start(time.Now(), c.rpcBudget)
	err = wire.Exchange(conn, c.cfg.Addr, req, &rc, func(pkt *wire.Packet) bool {
		out = *pkt
		out.Payload = append([]byte(nil), pkt.Payload...)
		return true
	})
	if errors.Is(err, wire.ErrNoReply) {
		return nil, fmt.Errorf("%w: %s (%s)", ErrMediatorDown, c.cfg.Name, c.cfg.Addr)
	}
	if err != nil {
		return nil, mapRemote(err)
	}
	return &out, nil
}

// mapRemote re-sentinels mediator errors that crossed the wire as text,
// so callers can errors.Is them exactly as with an in-process mediator.
func mapRemote(err error) error {
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	if strings.Contains(re.Msg, mediator.ErrOverloaded.Error()) {
		// Reconstruct the typed rejection so the broker sees the pacing
		// hint: the mediator encodes it as a "retry after <duration>"
		// suffix in the error text.
		return &mediator.OverloadedError{RetryAfter: parseRetryAfter(re.Msg)}
	}
	for _, sentinel := range []error{
		mediator.ErrDraining,
		mediator.ErrReplicaDown,
		mediator.ErrUnknownSession,
		mediator.ErrUnsatisfiable,
	} {
		if strings.Contains(re.Msg, sentinel.Error()) {
			return fmt.Errorf("%w (via %s)", sentinel, "medrpc")
		}
	}
	return fmt.Errorf("medrpc: remote: %w", err)
}

// parseRetryAfter extracts the "retry after <duration>" hint from an
// overload rejection's text. Malformed or absent hints yield zero; the
// broker substitutes its own backoff.
func parseRetryAfter(msg string) time.Duration {
	const marker = "retry after "
	i := strings.Index(msg, marker)
	if i < 0 {
		return 0
	}
	rest := msg[i+len(marker):]
	if j := strings.IndexByte(rest, ')'); j >= 0 {
		rest = rest[:j]
	}
	d, err := time.ParseDuration(rest)
	if err != nil || d < 0 {
		return 0
	}
	return d
}

// Admit opens a session on the replica. ctx rides the TMedOpen packet,
// so the serving replica's admission span joins the caller's trace.
func (c *Client) Admit(req mediator.Requirements, ctx obs.SpanContext) (*mediator.SessionRecord, error) {
	shards := req.ParityShards
	if shards < 0 || shards > 0xFFFF {
		return nil, fmt.Errorf("%w: parity shards %d not encodable", mediator.ErrUnsatisfiable, shards)
	}
	reply, err := c.rpc(&wire.Packet{
		Header: wire.Header{Type: wire.TMedOpen},
		Trace:  ctx,
		Payload: wire.AppendMedOpenRequest(nil, &wire.MedOpenRequest{
			Rate:         req.Rate,
			Redundancy:   req.Redundancy,
			ParityShards: uint16(shards),
			Key:          req.Key,
		}),
	})
	if err != nil {
		return nil, err
	}
	w, err := wire.ParseMedRecord(reply.Payload)
	if err != nil {
		return nil, fmt.Errorf("medrpc: open reply: %w", err)
	}
	rec := fromWireRecord(&w)
	return &rec, nil
}

// RenewSession renews-or-adopts the session on the replica, returning
// the replica name now responsible for the lease. ctx rides the
// TMedRenew packet, as with Admit.
func (c *Client) RenewSession(rec mediator.SessionRecord, ctx obs.SpanContext) (string, error) {
	w, err := toWireRecord(&rec)
	if err != nil {
		return "", err
	}
	reply, err := c.rpc(&wire.Packet{
		Header:  wire.Header{Type: wire.TMedRenew, Handle: rec.ID},
		Trace:   ctx,
		Payload: wire.AppendMedRecord(nil, &w),
	})
	if err != nil {
		return "", err
	}
	h, err := wire.ParseMedHome(reply.Payload)
	if err != nil {
		return "", fmt.Errorf("medrpc: renew reply: %w", err)
	}
	return h.Home, nil
}

// CloseSession releases the session on the replica.
func (c *Client) CloseSession(id uint64) error {
	_, err := c.rpc(&wire.Packet{Header: wire.Header{Type: wire.TMedClose, Handle: id}})
	return err
}

// CacheSync runs one cache-coherence round on the replica: declare the
// cached objects (with the generations their images reflect) and the
// objects written since the last successful round; the reply is the
// stale set to drop (and the client's own writes to adopt).
func (c *Client) CacheSync(id uint64, cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error) {
	req := wire.MedCacheSync{Session: id, Written: written}
	for _, co := range cached {
		req.Cached = append(req.Cached, wire.MedCachedObject{Name: co.Name, Gen: co.Gen})
	}
	reply, err := c.rpc(&wire.Packet{
		Header:  wire.Header{Type: wire.TMedInvalidate, Handle: id},
		Payload: wire.AppendMedCacheSync(nil, &req),
	})
	if err != nil {
		return nil, err
	}
	r, err := wire.ParseMedCacheSyncReply(reply.Payload)
	if err != nil {
		return nil, fmt.Errorf("medrpc: cache sync reply: %w", err)
	}
	var stale []mediator.CachedObject
	for _, o := range r.Stale {
		stale = append(stale, mediator.CachedObject{Name: o.Name, Gen: o.Gen})
	}
	return stale, nil
}

// Status queries the replica's operator-facing state.
func (c *Client) Status() (mediator.ReplicaStatus, error) {
	reply, err := c.rpc(&wire.Packet{Header: wire.Header{Type: wire.TMedStatus}})
	if err != nil {
		return mediator.ReplicaStatus{}, err
	}
	w, err := wire.ParseMedStatus(reply.Payload)
	if err != nil {
		return mediator.ReplicaStatus{}, fmt.Errorf("medrpc: status reply: %w", err)
	}
	return fromWireStatus(&w), nil
}

// Drain asks the replica to hand its live sessions to peers, returning
// how many it handed off.
func (c *Client) Drain() (int, error) {
	reply, err := c.rpc(&wire.Packet{Header: wire.Header{Type: wire.TMedDrain}})
	if err != nil {
		return 0, err
	}
	return int(reply.Length), nil
}

// Mirror delivers one replication update — the mediator.Peer
// implementation that federates replicas over the wire.
func (c *Client) Mirror(u mediator.MirrorUpdate) error {
	rec, err := toWireRecord(&u.Rec)
	if err != nil {
		return err
	}
	w := wire.MedMirror{Op: uint8(u.Op), From: u.From, Rec: rec}
	_, err = c.rpc(&wire.Packet{
		Header:  wire.Header{Type: wire.TMedMirror, Handle: u.Rec.ID},
		Payload: wire.AppendMedMirror(nil, &w),
	})
	return err
}
