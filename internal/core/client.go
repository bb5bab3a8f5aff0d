// Package core implements the paper's primary contribution: the Swift
// distribution agent. It is the client-side engine that stripes an object
// over a set of storage agents and drives them in parallel, executing the
// transfer plan with no further intervention by the storage mediator.
//
// The engine provides Unix file semantics (open, close, read, write, seek)
// on striped objects, the light-weight datagram protocol of §3.1 (reads
// with client-side resubmission and one outstanding request per agent;
// writes streamed at full speed with explicit acknowledgement and
// agent-driven resend requests), and the computed-copy redundancy of §2 as
// m+k Reed–Solomon rows (k = 1 is the paper's XOR parity) with degraded
// reads, degraded writes, and fragment rebuild through k failed agents.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/backoff"
	"swift/internal/cache"
	"swift/internal/ec"
	"swift/internal/extent"
	"swift/internal/mediator"
	"swift/internal/obs"
	"swift/internal/stripe"
	"swift/internal/transport"
	"swift/internal/wire"
)

// Errors returned by the engine.
var (
	ErrAgentDown    = errors.New("core: storage agent unreachable")
	ErrNoQuorum     = errors.New("core: too many failed agents for this layout")
	ErrRetriesSpent = errors.New("core: request retries exhausted")
	ErrClosed       = errors.New("core: file closed")
)

// Config describes a client of a set of storage agents; swift.Config is
// an alias of it.
type Config struct {
	// Host is the client machine's transport.
	Host transport.Host
	// Agents lists the storage agents' well-known control addresses.
	// Their order defines the striping order and must be consistent
	// across clients of the same objects.
	Agents []string
	// Unit is the striping unit in bytes (default 32 KiB). The storage
	// mediator picks it per session when rate requirements are declared.
	Unit int64
	// Parity enables computed-copy redundancy (requires >= 3 agents).
	Parity bool
	// ParityShards is the number of parity units per stripe row (k).
	// Zero means 1 when Parity is set (the paper's XOR computed copy);
	// values >= 2 select Reed–Solomon coding and tolerate up to k
	// simultaneous agent failures. Setting ParityShards implies Parity.
	ParityShards int
	// DataShards, when non-zero, asserts m = len(Agents)-ParityShards, so
	// a misconfigured agent list fails Dial instead of silently changing
	// the layout.
	DataShards int
	// RequestBytes is the largest read or write burst requested from
	// one agent at a time. Zero, the default, means 42 full data packets
	// of whatever size the session with that agent agreed at open: 57288
	// bytes of 1364-byte payloads, or 344064 of 8 KiB ones, which is a
	// whole number of 4 KiB blocks so a striping unit is one burst.
	RequestBytes int64
	// WriteWindow is the number of write bursts kept in flight per
	// agent (default 2).
	WriteWindow int
	// RetryTimeout is the base wait for progress on a burst before
	// resubmitting (default 250ms). Consecutive silent timeouts back off
	// exponentially (with jitter) up to 8×RetryTimeout, so a dead agent
	// is not bombarded on the shared medium.
	RetryTimeout time.Duration
	// MaxRetries sizes the retransmission budget: an operation gives up
	// on an agent once roughly MaxRetries×RetryTimeout elapses with no
	// progress (default 40). Progress refreshes the budget.
	MaxRetries int
	// ReadAhead, when > 0, prefetches sequential streams in windows of
	// this many bytes through the client block cache — the client-side
	// analogue of the kernel read-ahead the paper's baselines enjoy.
	// Detected streams get their next window fetched by a background
	// worker while the application consumes the current one; random
	// reads bypass it; two streams prefetch at once. Setting ReadAhead
	// enables the cache.
	ReadAhead int64
	// CacheSize bounds the client block cache in bytes. Zero auto-sizes
	// it when ReadAhead or WriteBehindMax enables the cache; negative
	// disables caching outright. Setting CacheSize > 0 enables the
	// cache even without read-ahead (re-reads then hit memory).
	CacheSize int64
	// WriteBehindMax, when > 0, absorbs writes into dirty cache blocks
	// up to this many bytes and flushes them to the agents in the
	// background in offset order. Sync remains a full flush barrier; a
	// failed write-back re-surfaces on the next write or Sync; writers
	// park once the dirty budget is exceeded. Zero keeps write-through.
	WriteBehindMax int64
	// CacheSync, when non-nil, is the mediator cache-coherence hook:
	// each heartbeat declares the cached objects (with the generations
	// their images reflect) and the objects written since the last
	// successful round, and receives back the stale set to drop. Nil
	// disables coherence (single-client caching).
	CacheSync func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error)
	// SyncWrites asks agents to commit each write burst to stable
	// storage before acknowledging it.
	SyncWrites bool
	// WritePace inserts a delay between outgoing data packets — the
	// prototype's "small wait loop between write operations" that kept
	// the SunOS kernel from silently dropping packets. Zero disables.
	WritePace time.Duration
	// Sleep implements WritePace (default time.Sleep). Measured runs
	// inject the modeled network's scaled sleeper.
	Sleep func(time.Duration)
	// Monitor, with Interval > 0, is the health monitor Dial starts.
	Monitor MonitorConfig
	// Logf receives diagnostics (default: none): one line per event worth
	// logging (lifecycle and breaker transitions, failovers, corruption).
	Logf func(format string, args ...any)
	// Verbose instead routes every trace event to Logf, prefixed
	// "trace:", burst-level timeouts and resends included.
	Verbose bool
	// Obs, when non-nil, is the metric registry the client registers its
	// telemetry in — so a process can aggregate client, transport and
	// mediator metrics behind one /metrics endpoint. Nil gets a private
	// registry (telemetry is always recorded).
	Obs *obs.Registry
	// TraceRate is the head-sampling rate in [0,1] of the tracer Dial
	// builds when Tracer is nil (the tail sampler keeps errored, retried
	// and slow ops regardless).
	TraceRate float64
	// Tracer, when non-nil, mints distributed-tracing spans: every client
	// operation roots a span tree, per-agent work opens children, and the
	// context rides control packets to agents and mediators. Nil with
	// TraceRate 0 disables tracing at zero cost on the per-packet path.
	Tracer *obs.Tracer
	// OpTimeout, when > 0, gives every read and write operation a deadline
	// budget. The remaining budget rides each request in the version-gated
	// deadline extension so agents can shed work whose client has already
	// given up. Zero (the default) disables deadline propagation; requests
	// stay byte-identical to the version-1 format.
	OpTimeout time.Duration
	// HedgeReads enables hedged reads with parity: a read burst stalled
	// past twice the agent's p99 burst latency (and at least RetryTimeout)
	// is abandoned and its extents reconstructed from the other agents'
	// shards, bounded by the retry budget. Default off.
	HedgeReads bool
	// BreakerThreshold consecutive pushbacks or retry give-ups trip an
	// agent's circuit breaker open for two seconds (default 5).
	BreakerThreshold int
}

const maxBackoff = 8 // cap on a retransmission wait, in RetryTimeouts

func (c *Config) fill() error {
	if c.Host == nil {
		return errors.New("core: config needs a Host")
	}
	if len(c.Agents) == 0 {
		return errors.New("core: config needs at least one agent")
	}
	if c.Unit == 0 {
		c.Unit = 32 * 1024
	}
	if c.WriteWindow == 0 {
		c.WriteWindow = 2
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 250 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 40
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	// Normalize the redundancy knobs both ways: ParityShards implies
	// Parity, and Parity alone means the single XOR parity unit. All
	// boolean cfg.Parity checks in the engine stay valid for any k.
	if c.ParityShards > 0 {
		c.Parity = true
	} else if c.Parity {
		c.ParityShards = 1
	}
	if c.DataShards > 0 && c.DataShards+c.ParityShards != len(c.Agents) {
		return fmt.Errorf("core: %d data + %d parity shards need %d agents, have %d",
			c.DataShards, c.ParityShards, c.DataShards+c.ParityShards, len(c.Agents))
	}
	return c.layout().Validate()
}

// ApplyPlan configures the client from an admitted transfer plan: agent
// set (striping order), striping unit, and redundancy scheme.
func (c *Config) ApplyPlan(p *mediator.Plan) {
	c.Agents = append([]string(nil), p.Addrs...)
	c.Unit = p.Unit
	c.Parity = p.Parity
	c.ParityShards = p.ParityShards
	c.DataShards = 0
	if p.Parity {
		c.DataShards = len(p.Addrs) - p.ParityShards
	}
}

// cacheEnabled reports whether the client runs the block cache tier.
func (c *Config) cacheEnabled() bool {
	if c.CacheSize < 0 {
		return false
	}
	return c.CacheSize > 0 || c.ReadAhead > 0 || c.WriteBehindMax > 0
}

// layout derives the striping layout from the filled config.
func (c *Config) layout() stripe.Layout {
	return stripe.Layout{
		Unit:        c.Unit,
		Agents:      len(c.Agents),
		Parity:      c.Parity,
		ParityUnits: c.ParityShards,
	}
}

// Client is a distribution agent bound to a fixed set of storage agents.
type Client struct {
	cfg    Config
	layout stripe.Layout
	codec  ec.Codec        // row erasure codec; nil without parity
	bo     *backoff.Policy // shared retransmission backoff schedule

	mu     sync.Mutex
	ctl    transport.PacketConn // shared control conn for stat/remove; guarded by mu
	health []agentHealth        // per-agent failure-domain state; guarded by mu
	files  map[*File]struct{}   // open files, for automatic re-admission; guarded by mu
	req    atomic.Uint32

	// Background health monitor (see health.go).
	monCfg  MonitorConfig
	monStop chan struct{}
	monDone chan struct{}

	tel    *telemetry
	tracer *obs.Tracer // nil when tracing is disabled

	budget   *tokenBucket // shared retry/hedge budget (see overload.go)
	breakers []breaker    // per-agent circuit breakers

	// Block cache tier (nil when caching is off; see cachetier.go).
	cache        *cache.Cache
	prefetchQ    chan prefetchReq // read-ahead suggestions to the workers
	prefetchStop chan struct{}
	prefetchWG   sync.WaitGroup
	flushKick    chan struct{} // nudges the write-behind flusher
	flushStop    chan struct{}
	flushDone    chan struct{}
	cacheOnce    sync.Once // guards cache-worker teardown

	cohMu   sync.Mutex
	written map[string]struct{} // objects written since the last successful coherence round; guarded by cohMu
}

// Dial creates a client. It performs no network traffic; agents are
// contacted when objects are opened.
func Dial(cfg Config) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctl, err := cfg.Host.Listen("0")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := &Client{
		cfg:      cfg,
		layout:   cfg.layout(),
		bo:       backoff.New(cfg.RetryTimeout, maxBackoff*cfg.RetryTimeout),
		ctl:      ctl,
		health:   make([]agentHealth, len(cfg.Agents)),
		files:    make(map[*File]struct{}),
		budget:   newTokenBucket(retryBudgetCap, retryBudgetRatio),
		breakers: make([]breaker, len(cfg.Agents)),
	}
	if k := c.layout.ParityPerRow(); k > 0 {
		c.codec, err = ec.New(c.layout.DataPerRow(), k)
		if err != nil {
			ctl.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	c.tel = newTelemetry(c)
	c.initCache()
	c.tracer = cfg.Tracer
	if c.tracer == nil {
		c.tracer = obs.NewTracer(obs.TracerConfig{Rate: cfg.TraceRate}) // nil at rate 0
		c.tracer.Register(c.tel.Registry())
	}
	if cfg.Monitor.Interval > 0 {
		c.StartMonitor(cfg.Monitor)
	}
	return c, nil
}

// Layout returns the client's striping layout.
func (c *Client) Layout() stripe.Layout { return c.layout }

// parityK returns the number of parity units per stripe row (0 without
// parity) — the number of simultaneous agent failures the layout masks.
func (c *Client) parityK() int { return c.layout.ParityPerRow() }

// Scheme describes the redundancy scheme: "m+k" (data+parity units per
// row) with parity enabled, "none" without.
func (c *Client) Scheme() string {
	if c.codec == nil {
		return "none"
	}
	return c.codec.String()
}

// ECStats snapshots the erasure codec's work counters. Without parity
// it returns zeros.
func (c *Client) ECStats() ec.Stats {
	if c.codec == nil {
		return ec.Stats{}
	}
	return c.codec.Stats()
}

// Close stops the health monitor (if running) and releases the client's
// control endpoint. Open files remain usable until closed individually.
func (c *Client) Close() error {
	c.StopMonitor()
	// Declare any writes still pending a coherence round, then stop the
	// cache workers (the flusher drains on its way out).
	c.CoherenceSync()
	c.stopCacheWorkers()
	c.tel.Close()
	// Holding mu across Close is deliberate: it serializes teardown
	// against any in-flight control RPC on the shared conn.
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctl.Close() //lint:allow lockio teardown path; waits out in-flight control RPCs by design
}

// MarkDown forces agent i's state: failed (true) or recovered (false).
// With parity enabled, reads and writes continue in degraded mode around
// a single failed agent. Normally the failure-domain lifecycle manages
// states automatically; MarkDown remains for drills and administrative
// fencing: unlike the lifecycle's own Down verdict, it leaves the
// sessions of files already open alone.
func (c *Client) MarkDown(i int, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.health) {
		return
	}
	if down {
		c.setStateLocked(i, StateDown, "administratively marked down")
	} else {
		c.setStateLocked(i, StateHealthy, "")
	}
}

// Down reports whether agent i is in the Down state.
func (c *Client) Down(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health[i].state == StateDown
}

// retryBudget is the no-progress interval after which an operation gives
// up on an agent.
func (c *Client) retryBudget() time.Duration {
	return time.Duration(c.cfg.MaxRetries) * c.cfg.RetryTimeout
}

func (c *Client) nextReq() uint32 { return c.req.Add(1) }

// OpenFlags control Open.
type OpenFlags struct {
	Create   bool
	Truncate bool
	// Trace, when valid, parents the open's span under the caller's span
	// (the facade's mount span); zero roots a fresh trace.
	Trace obs.SpanContext
}

// startSpan roots a span for one client operation, joining parent when it
// names a trace. Returns nil (a no-op span) when tracing is disabled.
func (c *Client) startSpan(parent obs.SpanContext, name string) *obs.Span {
	if parent.Valid() {
		return c.tracer.StartRemote(parent, "core", name, -1)
	}
	return c.tracer.StartOp("core", name)
}

// Open establishes per-agent sessions for the named object and returns a
// File with Unix semantics. With parity enabled, Open tolerates up to k
// (= ParityShards) unreachable agents and enters degraded mode.
func (c *Client) Open(name string, flags OpenFlags) (*File, error) {
	start := time.Now()
	sp := c.startSpan(flags.Trace, "open")
	defer sp.Finish()
	sp.Annotate("open %s", name)
	health := c.Health()
	sessions := make([]*agentSession, len(c.cfg.Agents))
	errs := make([]error, len(c.cfg.Agents))
	var wg sync.WaitGroup
	for i, addr := range c.cfg.Agents {
		if health[i].State == StateDown {
			errs[i] = ErrAgentDown
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			as := sp.StartChild("agent_open", i)
			sessions[i], errs[i] = c.openSession(i, addr, name, flags, as.Context())
			as.SetError(errs[i])
			as.Finish()
		}(i, addr)
	}
	wg.Wait()

	failed := 0
	for i := range errs {
		if errs[i] != nil {
			failed++
			if health[i].State != StateDown {
				c.noteFailure(i, errs[i])
			}
			c.tel.Note(evOpenFail, i, sp, "open %s: %v", name, errs[i])
		}
	}
	if failed > 0 && (!c.cfg.Parity || failed > c.parityK()) {
		for _, s := range sessions {
			if s != nil {
				s.close()
			}
		}
		i := slices.IndexFunc(errs, func(err error) bool { return err != nil })
		err := fmt.Errorf("core: open %s on agent %d (%s): %w", name, i, c.cfg.Agents[i], errs[i])
		sp.SetError(err)
		return nil, err
	}

	frag := make([]int64, len(sessions))
	for i, s := range sessions {
		frag[i] = -1
		if s != nil {
			frag[i] = s.fragSize
		}
	}
	f := &File{
		c:        c,
		name:     name,
		sessions: sessions,
		size:     c.layout.SizeFromFragments(frag),
		errs:     make([]error, len(sessions)),
	}
	if flags.Truncate {
		f.size = 0
	}
	if c.cache != nil {
		f.cobj = c.cache.Open(name)
		if flags.Truncate {
			// Cached blocks of the previous incarnation are stale.
			f.cobj.Invalidate(0, 1<<62)
		}
	}
	c.mu.Lock()
	c.files[f] = struct{}{}
	c.mu.Unlock()
	c.tel.openFiles.Add(1)
	observeSpan(c.tel.openLat, start, sp)
	return f, nil
}

// dropFile unregisters a closed file from the re-admission set.
func (c *Client) dropFile(f *File) {
	c.mu.Lock()
	delete(c.files, f)
	c.mu.Unlock()
	c.tel.openFiles.Add(-1)
}

// openFiles snapshots the registered open files.
func (c *Client) openFiles() []*File {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*File, 0, len(c.files))
	for f := range c.files {
		out = append(out, f)
	}
	return out
}

// agentSession is the client side of one open file on one agent: a
// dedicated local port paired with the agent's private port, and the
// resident worker that moves the agent's share of each attempt.
type agentSession struct {
	idx      int
	conn     transport.PacketConn
	dataAddr string // agent private address for this file
	handle   uint64
	fragSize int64
	// reqBytes is the burst size for this session: Config.RequestBytes,
	// or 42 packets of the agreed payload.
	reqBytes int64
	// buf receives runs of datagrams and out sends them; both belong to
	// whichever goroutine runs the session's share (see File.fanOut).
	buf []byte
	out *wire.Batch
	// start hands the worker the file whose share it runs next, or nil
	// from close to end it.
	start chan *File
	// down marks a session whose conn a Down verdict closed (dropDown).
	down atomic.Bool
	// payload is the gather scratch for one outgoing data packet; its
	// length is the data payload the session agreed at open.
	payload []byte
	// bursts are the burst driver's records, one per window slot; cuts
	// and x are what the session is given to move in an attempt (empty
	// between attempts).
	bursts []burst
	cuts   []extent.Extent
	x      xfer
}

// requestBytes is the burst size of a session whose data packets carry
// payload bytes each.
func (c *Config) requestBytes(payload int) int64 {
	if c.RequestBytes != 0 {
		return c.RequestBytes
	}
	return wire.BurstPackets * int64(payload)
}

// cut gives the session fragment extents to move between the agent and
// x, split into bursts of at most reqBytes each, in order.
func (s *agentSession) cut(es *extent.Set, x xfer) {
	s.cuts, s.x = s.cuts[:0], x
	for i := 0; i < es.Len(); i++ {
		e := es.At(i)
		for lo := e.Off; lo < e.End(); lo += s.reqBytes {
			s.cuts = append(s.cuts, extent.Extent{Off: lo, Len: min(s.reqBytes, e.End()-lo)})
		}
	}
}

// close ends the session and its worker.
func (s *agentSession) close() {
	s.conn.Close()
	s.start <- nil
}

// work runs each share handed to the session until close.
func (s *agentSession) work() {
	for f := <-s.start; f != nil; f = <-s.start {
		f.runShare(s)
		f.wg.Done()
	}
}

// openSession performs the open handshake with one agent, with
// retransmission. tctx, when valid, rides the TOpen packet so the agent's
// service span joins the caller's trace.
func (c *Client) openSession(idx int, addr, name string, flags OpenFlags, tctx obs.SpanContext) (*agentSession, error) {
	conn, err := c.cfg.Host.Listen("0")
	if err != nil {
		return nil, err
	}
	var f uint16
	if flags.Create {
		f |= wire.FCreate
	}
	if flags.Truncate {
		f |= wire.FTrunc
	}
	// Offer large data packets when this end's medium carries them and
	// its receive buffer holds the window the agent may have in flight
	// towards it; the agent answers with what both ends can do. An end
	// that cannot sends the name alone, as every client always has.
	offer := wire.OpenRequest{Name: name}
	m := transport.MediumOf(conn)
	window := int64(c.cfg.WriteWindow) * c.cfg.requestBytes(wire.JumboPayload)
	if window <= math.MaxUint32 && wire.SessionPacket(m.MaxDatagram, m.RecvBuffer, window) == wire.JumboPacket {
		offer.MaxPacket, offer.Window = wire.JumboPacket, uint32(window)
	}
	reply, err := c.rpc(conn, addr, &wire.Packet{
		Header:  wire.Header{Type: wire.TOpen, Flags: f},
		Trace:   tctx,
		Payload: wire.AppendOpenRequest(nil, &offer),
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if reply.Type != wire.TOpenReply {
		conn.Close()
		return nil, fmt.Errorf("core: unexpected %v to open", reply.Type)
	}
	rep, err := wire.ParseOpenReply(reply.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// Only an agreement to what was offered counts; a reply without the
	// field (an agent from before it existed) is the base packet.
	packet := wire.MaxPacket
	if offer.MaxPacket != 0 && rep.Packet == wire.JumboPacket {
		packet = wire.JumboPacket
	}
	payload := wire.DataPayload(packet)
	c.tel.agents[idx].packetBytes.Set(int64(packet))
	ahost, _, _ := transport.SplitAddr(addr)
	s := &agentSession{
		idx:      idx,
		conn:     conn,
		dataAddr: transport.JoinAddr(ahost, rep.Port),
		handle:   reply.Handle,
		fragSize: rep.Size,
		reqBytes: c.cfg.requestBytes(payload),
		buf:      make([]byte, transport.RunBuffer(conn, packet)),
		out:      wire.NewBatch(conn, packet),
		payload:  make([]byte, payload),
		bursts:   make([]burst, max(readWindow, c.cfg.WriteWindow)),
		start:    make(chan *File),
	}
	go s.work()
	return s, nil
}

// rpc sends req to addr on conn under a fresh request id and waits for the
// matching reply, retransmitting on timeout. TError replies are converted
// to errors.
func (c *Client) rpc(conn transport.PacketConn, addr string, req *wire.Packet) (*wire.Packet, error) {
	return c.rpcAttempts(conn, addr, req, c.nextReq(), c.cfg.MaxRetries)
}

// rpcAttempts is rpc with an explicit retransmission budget of roughly
// retries×RetryTimeout.
func (c *Client) rpcAttempts(conn transport.PacketConn, addr string, req *wire.Packet, reqID uint32, retries int) (*wire.Packet, error) {
	var out *wire.Packet
	req.ReqID = reqID
	err := c.exchange(conn, addr, req, retries, func(pkt *wire.Packet) bool {
		reply := *pkt
		reply.Payload = append([]byte(nil), pkt.Payload...)
		out = &reply
		return true
	})
	return out, err
}

// exchange runs one control RPC on wire.Exchange with a budget of
// retries×RetryTimeout; every retransmission counts as a backoff, and a
// spent budget is ErrAgentDown.
func (c *Client) exchange(conn transport.PacketConn, addr string, req *wire.Packet, retries int, take func(*wire.Packet) (done bool)) error {
	rc := c.bo.Start(time.Now(), time.Duration(retries)*c.cfg.RetryTimeout)
	err := wire.Exchange(conn, addr, req, &rc, take)
	for range rc.Level - 1 { // each retransmission waited beyond the base
		c.tel.Count(evBackoff, -1)
	}
	if errors.Is(err, wire.ErrNoReply) {
		return ErrAgentDown
	}
	return err
}

// Stat returns the logical size of the named object, or store.ErrNotExist
// translated as a RemoteError if no agent has a fragment.
func (c *Client) Stat(name string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frag := make([]int64, len(c.cfg.Agents))
	exists := false
	for i, addr := range c.cfg.Agents {
		if c.health[i].state == StateDown {
			frag[i] = -1
			continue
		}
		reply, err := c.rpc(c.ctl, addr, &wire.Packet{
			Header:  wire.Header{Type: wire.TStat},
			Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: name}),
		})
		if err != nil {
			return 0, fmt.Errorf("core: stat %s on agent %d: %w", name, i, err)
		}
		sr, err := wire.ParseStatReply(reply.Payload)
		if err != nil {
			return 0, err
		}
		if sr.Exists {
			exists = true
			frag[i] = sr.Size
		}
	}
	if !exists {
		return 0, &wire.RemoteError{Msg: "object does not exist"}
	}
	return c.layout.SizeFromFragments(frag), nil
}

// List returns the union of object names across all reachable agents,
// sorted. An object striped over the set appears once.
func (c *Client) List() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := make(map[string]bool)
	for i, addr := range c.cfg.Agents {
		if c.health[i].state == StateDown {
			continue
		}
		names, err := c.listAgentLocked(addr)
		if err != nil {
			return nil, fmt.Errorf("core: list agent %d: %w", i, err)
		}
		for _, n := range names {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// listAgentLocked collects one agent's TListReply stream, retransmitting
// the request until every packet up to the FLast-marked one has been seen.
// c.mu must be held: it serializes use of the shared control conn.
func (c *Client) listAgentLocked(addr string) ([]string, error) {
	parts := make(map[int64][]string)
	last := int64(-1)
	req := &wire.Packet{Header: wire.Header{Type: wire.TList, ReqID: c.nextReq()}}
	err := c.exchange(c.ctl, addr, req, c.cfg.MaxRetries, func(pkt *wire.Packet) bool {
		if pkt.Type != wire.TListReply {
			return false
		}
		names, perr := wire.ParseNames(pkt.Payload)
		if perr != nil {
			return false
		}
		parts[pkt.Offset] = names
		if pkt.Flags&wire.FLast != 0 {
			last = pkt.Offset
		}
		for s := int64(0); s <= last; s++ {
			if _, ok := parts[s]; !ok {
				return false
			}
		}
		return last >= 0
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for s := int64(0); s <= last; s++ {
		out = append(out, parts[s]...)
	}
	return out, nil
}

// AgentStatus is one agent's health probe result.
type AgentStatus struct {
	Addr     string
	Alive    bool
	RTT      time.Duration
	Objects  uint32
	Sessions uint32
	Bytes    int64
}

// Ping probes every agent (including ones marked down) concurrently and
// returns their statuses in agent order. It holds no client lock and uses
// a private endpoint per probe, so a dead agent delays the result by at
// most its own probe budget and never stalls other client operations.
func (c *Client) Ping() []AgentStatus {
	out := make([]AgentStatus, len(c.cfg.Agents))
	var wg sync.WaitGroup
	for i, addr := range c.cfg.Agents {
		out[i].Addr = addr
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			pr, rtt, err := c.probeAgent(addr, probeRetries)
			if err != nil {
				return
			}
			out[i].Alive = true
			out[i].RTT = rtt
			out[i].Objects = pr.Objects
			out[i].Sessions = pr.Sessions
			out[i].Bytes = pr.Bytes
		}(i, addr)
	}
	wg.Wait()
	return out
}

// probeAgent sends one TPing to addr on a private ephemeral endpoint with
// the given retry budget. It is safe to call concurrently and takes no
// client lock.
func (c *Client) probeAgent(addr string, retries int) (wire.PingReply, time.Duration, error) {
	conn, err := c.cfg.Host.Listen("0")
	if err != nil {
		return wire.PingReply{}, 0, err
	}
	defer conn.Close()
	c.tel.Count(evProbe, -1)
	start := time.Now()
	reply, err := c.rpcAttempts(conn, addr, &wire.Packet{Header: wire.Header{Type: wire.TPing}}, c.nextReq(), retries)
	if err != nil {
		return wire.PingReply{}, 0, err
	}
	if reply.Type != wire.TPingReply {
		return wire.PingReply{}, 0, fmt.Errorf("core: unexpected %v to ping", reply.Type)
	}
	pr, err := wire.ParsePingReply(reply.Payload)
	if err != nil {
		return wire.PingReply{}, 0, err
	}
	rtt := time.Since(start)
	c.tel.probeLat.Observe(rtt)
	return pr, rtt, nil
}

// Remove deletes the named object's fragments from all reachable agents.
func (c *Client) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for i, addr := range c.cfg.Agents {
		if c.health[i].state == StateDown {
			continue
		}
		_, err := c.rpc(c.ctl, addr, &wire.Packet{
			Header:  wire.Header{Type: wire.TRemove},
			Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: name}),
		})
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: remove %s on agent %d: %w", name, i, err)
		}
	}
	return firstErr
}
