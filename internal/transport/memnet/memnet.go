// Package memnet is an in-memory datagram network with modeled media.
// It reproduces the environment of the paper's prototype measurements:
// one or more shared-bus Ethernet segments with finite bandwidth and
// per-frame overhead, hosts with per-packet send/receive CPU costs and
// bounded receive queues (the SunOS buffer-space losses the prototype
// fought), and optional random loss.
//
// All medium and CPU bookkeeping is done in *modeled time* anchored to the
// network's epoch; goroutines sleep until the real-time projection of a
// modeled instant. A time-scale factor S runs the model S× faster than
// wall-clock while keeping modeled rates exact: scheduling decisions are
// made from the modeled timeline, so sleep jitter does not accumulate into
// throughput error. A network built with NewModeled goes further: its
// clock holds while the host is late to run a model goroutine (see clock).
//
// The same protocol code that runs over real UDP runs over memnet
// unchanged; only capacities and costs differ. Like udpnet, a conn sends
// and receives runs of datagrams (transport.SegmentWriter and
// SegmentReader). Every datagram of a run is still modeled, faulted and
// counted as a WriteTo of it would be; a run crosses as one frame only
// where the model charges it no time (see Host.sendRun).
package memnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"swift/internal/transport"
)

// Net is an in-memory network: a set of hosts attached to segments.
type Net struct {
	clock

	mu    sync.Mutex
	hosts map[string]*Host

	// frames recycles datagram buffers: a send copies the caller's
	// bytes into one, a read copies them out and hands it back.
	frames sync.Pool
}

// frame is a run of datagrams in flight: b holds them end to end, every
// one seg bytes except the last, which may be shorter. A lone datagram is
// a run of one. The pool holds *frame rather than []byte so that
// returning one does not itself allocate.
type frame struct {
	b   []byte
	seg int
}

// datagrams is how many datagrams the frame carries.
func (f *frame) datagrams() int64 {
	if len(f.b) <= f.seg {
		return 1
	}
	return int64((len(f.b) + f.seg - 1) / f.seg)
}

// acquireFrame returns a frame holding a copy of the run p of seg-byte
// datagrams. Exactly one holder owns it from here on — the queue it sits
// in, then the conn that dequeues it — until releaseFrame.
//
//swift:pool acquire
func (n *Net) acquireFrame(p []byte, seg int) *frame {
	f, _ := n.frames.Get().(*frame)
	if f == nil {
		f = new(frame) //lint:allow hotalloc the pool is empty only until the first frames have been read and returned
	}
	f.b = append(f.b[:0], p...) //lint:allow hotalloc grows only until the frame has carried a run this large
	f.seg = min(seg, len(p))
	return f
}

// releaseFrame hands a frame back once its bytes have been copied out
// (or the datagram was dropped).
//
//swift:pool release
func (n *Net) releaseFrame(f *frame) { n.frames.Put(f) }

// New creates a network whose modeled time runs scale× faster than real
// time (scale >= 1; 1 means real time).
func New(scale float64) *Net { return newNet(scale, false) }

// NewModeled is New for modeled measurements, where the model's own
// delays are the whole cost of a run and the real work between them is
// meant to take no modeled time. Its clock holds while a model goroutine
// that is due to act has not yet run (see clock), so a busy or slow
// machine stretches a run's wall time instead of lowering its rates.
func NewModeled(scale float64) *Net { return newNet(scale, true) }

func newNet(scale float64, holding bool) *Net {
	if scale <= 0 {
		scale = 1
	}
	n := &Net{hosts: make(map[string]*Host)}
	n.clock.init(scale, holding)
	return n
}

// Scale returns the time-scale factor.
func (n *Net) Scale() float64 { return n.scale }

// Close shuts down every host on the network, stopping their receive
// loops. Idempotent; intended for test teardown so leak checks see a
// quiet network.
func (n *Net) Close() {
	n.mu.Lock()
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.mu.Unlock()
	for _, h := range hosts {
		h.Close()
	}
}

// Now returns the current modeled time since the network's epoch. This
// is the clock seam itself: all model code reads time through it.
func (n *Net) Now() time.Duration { return time.Duration(n.now()) }

// Sleep blocks for a modeled duration.
func (n *Net) Sleep(d time.Duration) {
	if d > 0 {
		n.sleepUntil(n.Now() + d)
	}
}

// Sleeper returns Sleep as a plain function, for injecting into modeled
// devices (e.g. disk.Device) so their delays share the network's clock.
func (n *Net) Sleeper() func(time.Duration) { return n.Sleep }

// sleepUntil blocks until the modeled instant t (since epoch).
func (n *Net) sleepUntil(t time.Duration) { n.clock.sleepUntil(int64(t)) }

// SegmentConfig parameterizes a shared-bus medium.
type SegmentConfig struct {
	// BandwidthBps is the raw medium bandwidth in bits/second.
	BandwidthBps float64
	// FrameOverhead is the per-datagram framing overhead in bytes
	// (preamble, MAC header/FCS, inter-frame gap, IP/UDP headers).
	FrameOverhead int
	// MTU is the largest datagram payload accepted (0 = 1500).
	MTU int
	// Latency is the one-way propagation delay added after transmission.
	Latency time.Duration
	// LossRate drops transmitted frames with this probability.
	LossRate float64
	// ReorderRate delays a frame's delivery by ReorderDelay with this
	// probability, letting later frames overtake it — UDP reordering.
	ReorderRate float64
	// ReorderDelay is the extra delivery delay for reordered frames
	// (0 = 2ms).
	ReorderDelay time.Duration
	// Seed seeds the segment's loss RNG.
	Seed int64
}

// Segment is one shared-bus medium. Transmissions serialize on the bus in
// modeled time; a sender occupies the bus for the frame's transmission
// time, which is how saturation and contention emerge.
//
// A segment's loss rate, extra latency, payload-corruption rate, per-link
// loss and host isolation set are adjustable at runtime while traffic is
// flowing — the injection points used by internal/faultinject.
type Segment struct {
	net  *Net
	name string
	cfg  SegmentConfig

	mu           sync.Mutex
	busyUntil    time.Duration
	busyAccum    time.Duration
	frames       int64
	bytes        int64
	lost         int64
	corrupted    int64
	deferrals    int64         // frames that found the bus busy
	deferredTime time.Duration // modeled time spent waiting for the bus
	rng          *rand.Rand

	// Runtime fault state (initialized from cfg, mutable while running).
	lossRate     float64
	extraLatency time.Duration
	corruptRate  float64
	linkLoss     map[string]float64 // "src>dst" host pair → loss probability
	isolated     map[string]bool    // hosts cut off from the segment
}

// NewSegment creates a medium on the network.
func (n *Net) NewSegment(name string, cfg SegmentConfig) *Segment {
	if cfg.MTU == 0 {
		cfg.MTU = 1500
	}
	return &Segment{
		net:      n,
		name:     name,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
		lossRate: cfg.LossRate,
	}
}

// SetLossRate replaces the segment's frame loss probability at runtime.
func (s *Segment) SetLossRate(p float64) {
	s.mu.Lock()
	s.lossRate = p
	s.mu.Unlock()
}

// SetExtraLatency adds d to every frame's delivery time — a runtime
// latency spike (0 restores normal propagation delay).
func (s *Segment) SetExtraLatency(d time.Duration) {
	s.mu.Lock()
	s.extraLatency = d
	s.mu.Unlock()
}

// SetCorruptRate makes the segment flip one payload byte of transmitted
// frames with probability p. Corrupted frames are delivered; detecting and
// rejecting them is the protocol's job (wire's CRC).
func (s *Segment) SetCorruptRate(p float64) {
	s.mu.Lock()
	s.corruptRate = p
	s.mu.Unlock()
}

// SetLinkLoss sets an additional loss probability for frames from host src
// to host dst (0 removes the entry). This models a single bad cable or
// transceiver rather than a congested bus.
func (s *Segment) SetLinkLoss(src, dst string, p float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p <= 0 {
		delete(s.linkLoss, src+">"+dst)
		return
	}
	if s.linkLoss == nil {
		s.linkLoss = make(map[string]float64)
	}
	s.linkLoss[src+">"+dst] = p
}

// Isolate partitions the named hosts off the segment: frames to or from
// them are dropped on the wire until Heal. Other hosts keep communicating.
func (s *Segment) Isolate(hosts ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isolated == nil {
		s.isolated = make(map[string]bool)
	}
	for _, h := range hosts {
		s.isolated[h] = true
	}
}

// Heal removes every host isolation on the segment.
func (s *Segment) Heal() {
	s.mu.Lock()
	s.isolated = nil
	s.mu.Unlock()
}

// Isolated reports whether the named host is currently partitioned off.
func (s *Segment) Isolated(host string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.isolated[host]
}

// Name returns the segment's name.
func (s *Segment) Name() string { return s.name }

// frameTime returns the modeled transmission time of an n-byte datagram.
func (s *Segment) frameTime(n int) time.Duration {
	bits := float64(n+s.cfg.FrameOverhead) * 8
	return time.Duration(bits / s.cfg.BandwidthBps * float64(time.Second))
}

// fate is what the segment does to one datagram: loses it, or delivers
// it with the byte at flipped by mask (mask 0: intact).
type fate struct {
	lost bool
	at   int
	mask byte
}

// carryLocked counts one n-byte datagram from host src to host dst and
// draws its fate. Every datagram, sent alone or in a run, takes the same
// draws in the same order, so a seeded segment hits the same datagrams
// whichever call sent them.
func (s *Segment) carryLocked(src, dst string, n int) fate {
	s.frames++
	s.bytes += int64(n)
	lost := s.lossRate > 0 && s.rng.Float64() < s.lossRate
	if !lost && s.isolated != nil && (s.isolated[src] || s.isolated[dst]) {
		lost = true // partitioned: the frame never reaches the far side
	}
	if !lost && s.linkLoss != nil {
		//lint:allow hotalloc the per-link key is built only while a link fault is injected
		if lp, ok := s.linkLoss[src+">"+dst]; ok && s.rng.Float64() < lp {
			lost = true
		}
	}
	if lost {
		s.lost++
		return fate{lost: true}
	}
	var f fate
	if s.corruptRate > 0 && n > 0 && s.rng.Float64() < s.corruptRate {
		f.at = s.rng.Intn(n)
		f.mask = byte(1 + s.rng.Intn(255)) // never a no-op flip
		s.corrupted++
	}
	return f
}

// corrupt applies f to the datagram d.
func (f fate) corrupt(d []byte) {
	if f.mask != 0 {
		d[f.at] ^= f.mask
	}
}

// Stats reports the segment's cumulative traffic counters.
type Stats struct {
	Frames       int64
	Bytes        int64 // payload bytes carried
	Lost         int64
	Corrupted    int64         // frames delivered with a flipped payload byte
	BusyTime     time.Duration // modeled time the bus was occupied
	Deferrals    int64         // frames that found the bus busy and waited
	DeferredTime time.Duration // modeled time frames spent waiting for the bus
}

// Stats returns a snapshot of the segment's counters.
func (s *Segment) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Frames: s.frames, Bytes: s.bytes, Lost: s.lost,
		Corrupted: s.corrupted, BusyTime: s.busyAccum,
		Deferrals: s.deferrals, DeferredTime: s.deferredTime}
}

// Utilization returns the fraction of modeled time since the network's
// epoch that the bus has been occupied — the figure the paper reports for
// its saturated Ethernet runs.
func (s *Segment) Utilization() float64 {
	now := s.net.Now()
	if now <= 0 {
		return 0
	}
	s.mu.Lock()
	busy := s.busyAccum
	s.mu.Unlock()
	return float64(busy) / float64(now)
}

// Capacity returns the effective payload capacity in bytes/second for
// datagrams of the given payload size, i.e. the medium's maximum data-rate
// as an application measures it.
func (s *Segment) Capacity(payload int) float64 {
	ft := s.frameTime(payload)
	return float64(payload) / ft.Seconds()
}

// HostConfig parameterizes a machine's network processing.
type HostConfig struct {
	// SendCPU is the per-packet protocol processing cost on transmit.
	SendCPU time.Duration
	// RecvCPU is the per-packet protocol processing cost on receive.
	// The prototype's SPARCstation 2 client is receive-bound; this is
	// the knob that reproduces the paper's Table 4 read behaviour.
	RecvCPU time.Duration
	// SendPerByte / RecvPerByte add a per-byte cost (data copying).
	SendPerByte time.Duration
	RecvPerByte time.Duration
	// IngressQueue bounds datagrams awaiting receive processing
	// (0 = 512). Overflow is dropped, modeling kernel buffer exhaustion.
	IngressQueue int
	// PortQueue bounds datagrams queued on each port (0 = 256).
	PortQueue int
}

// Host is one machine attached to one or more segments.
type Host struct {
	net  *Net
	name string
	cfg  HostConfig
	segs []*Segment

	mu        sync.Mutex
	ports     map[string]*conn
	ephemeral int
	txUntil   time.Duration
	closed    bool
	paused    bool

	ingress chan inPacket
	done    chan struct{} // closed by Host.Close; stops the receive loop
	// rxIdle is set while the receive loop waits on an empty ingress
	// queue; rxHold is the hold a sender placed on a holding clock when
	// it handed a frame to the waiting loop.
	rxIdle bool
	rxHold handoff

	drops int64 // ingress + port queue drops
}

type inPacket struct {
	frame   *frame
	from    string
	port    string
	arrival time.Duration
}

// NewHost creates a host attached to the given segments. Host names must
// be unique within the network.
func (n *Net) NewHost(name string, cfg HostConfig, segs ...*Segment) (*Host, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("memnet: host %q needs at least one segment", name)
	}
	if cfg.IngressQueue == 0 {
		cfg.IngressQueue = 512
	}
	if cfg.PortQueue == 0 {
		cfg.PortQueue = 256
	}
	h := &Host{
		net:     n,
		name:    name,
		cfg:     cfg,
		segs:    segs,
		ports:   make(map[string]*conn),
		ingress: make(chan inPacket, cfg.IngressQueue),
		done:    make(chan struct{}),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[name]; dup {
		return nil, fmt.Errorf("memnet: duplicate host %q", name)
	}
	n.hosts[name] = h
	go h.receiveLoop()
	return h, nil
}

// MustHost is NewHost that panics on error, for test and harness setup.
func (n *Net) MustHost(name string, cfg HostConfig, segs ...*Segment) *Host {
	h, err := n.NewHost(name, cfg, segs...)
	if err != nil {
		panic(err)
	}
	return h
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Drops returns the number of datagrams this host discarded due to full
// ingress or port queues.
func (h *Host) Drops() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.drops
}

// SetPaused freezes (true) or thaws (false) the host, like SIGSTOP on the
// machine's protocol stack: while paused it transmits nothing and
// processes no ingress. Arriving frames queue in the ingress buffer (and
// overflow drops, modeling kernel buffer exhaustion); they are processed
// after resume.
func (h *Host) SetPaused(p bool) {
	h.mu.Lock()
	h.paused = p
	h.mu.Unlock()
}

// Paused reports whether the host is currently frozen.
func (h *Host) Paused() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.paused
}

// receiveLoop models the host's receive-side protocol processing: packets
// are handled one at a time, each charged the per-packet (and per-byte)
// receive cost, then delivered to the destination port's queue.
func (h *Host) receiveLoop() {
	var cpuUntil time.Duration
	for {
		pkt, ok := h.next()
		if !ok {
			return
		}
		h.net.sleepUntil(pkt.arrival)
		for h.Paused() { // frozen: hold processing until resumed
			select {
			case <-h.done:
				return
			default:
			}
			h.net.Sleep(200 * time.Microsecond)
		}
		cost := h.cfg.RecvCPU + time.Duration(len(pkt.frame.b))*h.cfg.RecvPerByte
		if cost > 0 {
			start := h.net.Now()
			if start < cpuUntil {
				start = cpuUntil
			}
			cpuUntil = start + cost
			h.net.sleepUntil(cpuUntil)
		}
		h.mu.Lock()
		c := h.ports[pkt.port]
		h.mu.Unlock()
		if c == nil {
			h.net.releaseFrame(pkt.frame)
			continue // no listener: silently dropped, like UDP
		}
		c.handOff()
		select {
		case c.queue <- pkt:
		default:
			h.drop(pkt.frame)
		}
	}
}

// drop discards a frame a full queue refused, counting each of its
// datagrams: a run takes one queue slot, as a coalesced skb does in a
// kernel, and is lost whole.
func (h *Host) drop(f *frame) {
	n := f.datagrams()
	h.net.releaseFrame(f)
	h.mu.Lock()
	h.drops += n
	h.mu.Unlock()
}

// isClosed reports whether Close has been called.
func (h *Host) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// next takes the next frame off the ingress queue, waiting for one, and
// reports false once the host is closed.
func (h *Host) next() (inPacket, bool) {
	select {
	case pkt := <-h.ingress:
		return pkt, true
	default:
	}
	if h.net.holding {
		h.mu.Lock()
		h.rxIdle = true
		h.mu.Unlock()
		defer h.woke()
	}
	select {
	case pkt := <-h.ingress:
		return pkt, true
	case <-h.done:
		return inPacket{}, false
	}
}

// woke ends the receive loop's wait, dropping the hold a sender placed.
func (h *Host) woke() {
	h.mu.Lock()
	h.rxIdle = false
	h.rxHold.release(&h.net.clock)
	h.mu.Unlock()
}

// handOff is called as a frame due at t is queued for the receive loop.
// On a holding clock, a loop waiting for it holds the clock at t until it
// has run.
func (h *Host) handOff(t time.Duration) {
	if !h.net.holding {
		return
	}
	h.mu.Lock()
	if h.rxIdle {
		h.rxHold.place(&h.net.clock, int64(t))
	}
	h.mu.Unlock()
}

// handoff is a clock hold placed when a frame is handed to a goroutine
// parked waiting for one, released once that goroutine runs. One pending
// hold per waiting side is enough: the first waiter to run releases it.
type handoff struct {
	held bool
	at   int64
}

// place holds the clock at t unless a hold is already pending.
func (h *handoff) place(c *clock, t int64) {
	if !h.held {
		h.held, h.at = true, t
		c.hold(t)
	}
}

// release drops the pending hold, if any.
func (h *handoff) release(c *clock) {
	if h.held {
		h.held = false
		c.release(h.at)
	}
}

// Close shuts down the host's receive processing. Intended for teardown in
// tests; sends to a closed host are dropped.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	conns := make([]*conn, 0, len(h.ports))
	for _, c := range h.ports {
		conns = append(conns, c)
	}
	h.ports = map[string]*conn{}
	h.mu.Unlock()
	for _, c := range conns {
		c.markClosed()
	}
	close(h.done)
}

// Listen opens a datagram endpoint on the given port ("0" = ephemeral).
func (h *Host) Listen(port string) (transport.PacketConn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, transport.ErrClosed
	}
	if port == "0" || port == "" {
		for {
			h.ephemeral++
			port = fmt.Sprintf("%d", 40000+h.ephemeral)
			if _, used := h.ports[port]; !used {
				break
			}
		}
	} else if _, used := h.ports[port]; used {
		return nil, fmt.Errorf("memnet: port %s:%s already in use", h.name, port)
	}
	c := &conn{
		host:  h,
		port:  port,
		addr:  transport.JoinAddr(h.name, port),
		queue: make(chan inPacket, h.cfg.PortQueue),
		done:  make(chan struct{}),
	}
	h.ports[port] = c
	return c, nil
}

// route finds the first segment shared with the destination host.
func (h *Host) route(dst *Host) *Segment {
	for _, s := range h.segs {
		for _, d := range dst.segs {
			if s == d {
				return s
			}
		}
	}
	return nil
}

// send models the full transmission of one datagram: sender CPU, bus
// acquisition and occupancy, propagation, then hand-off to the receiving
// host's ingress queue. It blocks the caller for the modeled send time,
// like a blocking sendto(2) on a saturated interface.
func (h *Host) send(p []byte, dstHost *Host, dstPort, from string) error {
	seg := h.route(dstHost)
	if seg == nil {
		return transport.ErrNoRoute
	}
	if len(p) > seg.cfg.MTU {
		return transport.ErrTooLarge
	}
	if h.Paused() {
		return nil // a stopped machine transmits nothing
	}

	// Sender protocol processing (serialized per host).
	cost := h.cfg.SendCPU + time.Duration(len(p))*h.cfg.SendPerByte
	var cpuDone time.Duration
	h.mu.Lock()
	start := h.net.Now()
	if start < h.txUntil {
		start = h.txUntil
	}
	cpuDone = start + cost
	h.txUntil = cpuDone
	h.mu.Unlock()

	// Bus occupancy.
	ft := seg.frameTime(len(p))
	seg.mu.Lock()
	busStart := cpuDone
	if now := h.net.Now(); busStart < now {
		busStart = now
	}
	if busStart < seg.busyUntil {
		// Contention: another sender holds the bus; this frame defers
		// until the medium frees up (CSMA deference, minus collisions).
		seg.deferrals++
		seg.deferredTime += seg.busyUntil - busStart
		busStart = seg.busyUntil
	}
	txEnd := busStart + ft
	seg.busyUntil = txEnd
	seg.busyAccum += ft
	hit := seg.carryLocked(h.name, dstHost.name, len(p))
	extraLat := seg.extraLatency
	reordered := !hit.lost && seg.cfg.ReorderRate > 0 && seg.rng.Float64() < seg.cfg.ReorderRate
	seg.mu.Unlock()

	h.net.sleepUntil(txEnd)
	if hit.lost {
		return nil // dropped on the wire; sender cannot tell
	}
	if dstHost.isClosed() {
		return nil // like sending to a powered-off machine
	}
	f := h.net.acquireFrame(p, len(p))
	hit.corrupt(f.b)
	pkt := inPacket{
		from:    from,
		port:    dstPort,
		arrival: txEnd + seg.cfg.Latency + extraLat,
	}
	pkt.frame = f // the queued packet owns the frame from here
	if reordered {
		// Hold the frame back so later traffic overtakes it, then
		// inject it with its (past) arrival time.
		delay := seg.cfg.ReorderDelay
		if delay == 0 {
			delay = 2 * time.Millisecond
		}
		late := pkt
		late.arrival += delay
		//lint:allow hotalloc reordering is an injected fault: one goroutine per held-back frame
		go func() {
			h.net.sleepUntil(late.arrival)
			deliver(dstHost, late)
		}()
		return nil
	}
	deliver(dstHost, pkt)
	return nil
}

// deliver hands a frame to the destination host's ingress queue, counting
// a drop on overflow.
func deliver(dst *Host, pkt inPacket) {
	dst.handOff(pkt.arrival)
	select {
	case dst.ingress <- pkt:
	default:
		dst.drop(pkt.frame)
	}
}

// sendRun sends the run b of seg-byte datagrams, the last possibly
// shorter. Where the model charges the run no time — no send cost at h,
// no receive cost at dst, no transmission time on the segment, no
// latency and no reordering — it crosses as frames: one clock read, one
// pass under each lock and one hand-off to each queue for the run, not
// for each datagram. Elsewhere every datagram goes through send, exactly
// as a WriteTo of it would, so modeled segments keep their per-datagram
// timeline.
func (h *Host) sendRun(b []byte, seg int, dst *Host, dstPort, from string) error {
	s := h.route(dst)
	if s == nil {
		return transport.ErrNoRoute
	}
	if seg > s.cfg.MTU {
		return transport.ErrTooLarge
	}
	free := h.cfg.SendCPU == 0 && h.cfg.SendPerByte == 0 && dst.cfg.RecvCPU == 0 && dst.cfg.RecvPerByte == 0 &&
		s.frameTime(len(b)) == 0 && s.cfg.Latency == 0 && s.cfg.ReorderRate == 0
	if free && h.moveRun(b, seg, s, dst, dstPort, from) {
		return nil
	}
	for len(b) > 0 {
		var dgram []byte
		dgram, b = transport.NextSegment(b, seg)
		if err := h.send(dgram, dst, dstPort, from); err != nil {
			return err
		}
	}
	return nil
}

// moveRun is sendRun's path for a run the model charges no time. Each
// datagram is counted and takes its fate as send would give it, a
// corrupted one with its byte flipped inside the frame; the survivors
// travel as frames cut at each lost datagram. It reports false, having
// sent nothing, when the segment carries an extra latency.
func (h *Host) moveRun(b []byte, seg int, s *Segment, dst *Host, dstPort, from string) bool {
	if h.Paused() {
		return true // a stopped machine transmits nothing
	}
	f := h.net.acquireFrame(b, seg)
	var lost uint64 // bit i: datagram i was lost (a run holds at most MaxSegments)
	s.mu.Lock()
	if s.extraLatency != 0 {
		s.mu.Unlock()
		h.net.releaseFrame(f)
		return false
	}
	now := h.net.Now()
	at := now
	if at < s.busyUntil {
		s.deferrals++ // the first datagram defers; the rest follow it
		s.deferredTime += s.busyUntil - at
		at = s.busyUntil
	}
	s.busyUntil = at
	for i, rest := 0, f.b; len(rest) > 0; i++ {
		var dgram []byte
		dgram, rest = transport.NextSegment(rest, seg)
		hit := s.carryLocked(h.name, dst.name, len(dgram))
		if hit.lost {
			lost |= 1 << i
		}
		hit.corrupt(dgram)
	}
	s.mu.Unlock()

	if at > now {
		h.net.sleepUntil(at)
	}
	if dst.isClosed() {
		h.net.releaseFrame(f) // like sending to a powered-off machine
		return true
	}
	pkt := inPacket{from: from, port: dstPort, arrival: at}
	if lost == 0 {
		pkt.frame = f // the queued packet owns the frame from here
		deliver(dst, pkt)
		return true
	}
	n := (len(b) + seg - 1) / seg
	first := 0 // the first datagram of the frame being gathered
	for i := 0; i <= n; i++ {
		if i < n && lost&(1<<i) == 0 {
			continue
		}
		if i > first {
			part := pkt
			part.frame = h.net.acquireFrame(f.b[first*seg:min(i*seg, len(f.b))], seg)
			deliver(dst, part)
		}
		first = i + 1
	}
	h.net.releaseFrame(f)
	return true
}

// conn is a memnet datagram endpoint.
type conn struct {
	host  *Host
	port  string
	addr  string // "host:port", fixed at Listen
	queue chan inPacket

	mu       sync.Mutex
	deadline time.Time
	closed   bool
	done     chan struct{}
	// waiting counts readers parked in a read on a holding clock; hold is
	// the hold a delivery to them placed.
	waiting int
	hold    handoff

	// rmu serializes readers, as udpnet's does. A read that hands a run
	// out one datagram at a time keeps the frame in held, off bytes of it
	// handed out, until its last datagram is read or the conn closes.
	rmu  sync.Mutex
	held inPacket // guarded by rmu
	off  int      // guarded by rmu
	// timer is the read-deadline timer, kept stopped and drained between
	// blocking reads.
	timer *time.Timer // guarded by rmu
}

func (c *conn) LocalAddr() string { return c.addr }

// Medium reports the smallest MTU among the host's segments — whichever
// one a destination routes over carries at least that — and the port
// queue's capacity in datagrams of that size. A run takes one queue slot,
// so the queue can hold more than that; the figure is the conservative
// one, what it holds when every sender goes datagram by datagram.
func (c *conn) Medium() transport.Medium {
	mtu := c.host.segs[0].cfg.MTU
	for _, s := range c.host.segs[1:] {
		mtu = min(mtu, s.cfg.MTU)
	}
	return transport.Medium{MaxDatagram: mtu, RecvBuffer: cap(c.queue) * mtu}
}

// dest resolves a send's destination address to its host and port.
func (c *conn) dest(addr string) (*Host, string, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, "", transport.ErrClosed
	}
	dhost, dport, ok := transport.SplitAddr(addr)
	if !ok {
		return nil, "", fmt.Errorf("memnet: bad address %q", addr) //lint:allow hotalloc malformed destination addresses are the cold path
	}
	c.host.net.mu.Lock()
	dst := c.host.net.hosts[dhost]
	c.host.net.mu.Unlock()
	if dst == nil {
		return nil, "", transport.ErrNoRoute
	}
	return dst, dport, nil
}

// WriteTo copies p into a pooled frame and queues it for the destination;
// the caller may reuse p as soon as it returns.
//
//swift:hotpath
func (c *conn) WriteTo(p []byte, addr string) error {
	dst, dport, err := c.dest(addr)
	if err != nil {
		return err
	}
	return c.host.send(p, dst, dport, c.addr)
}

// WriteSegments sends b to addr as datagrams of seg bytes, the last
// possibly shorter, in runs of at most transport.MaxRun bytes and
// transport.MaxSegments datagrams, as udpnet's sends are cut. See
// Host.sendRun for when a run crosses as one frame.
//
//swift:hotpath
func (c *conn) WriteSegments(b []byte, seg int, addr string) error {
	if seg <= 0 || seg >= len(b) {
		return c.WriteTo(b, addr)
	}
	dst, dport, err := c.dest(addr)
	if err != nil {
		return err
	}
	whole := max(min(transport.MaxRun/seg, transport.MaxSegments), 1) * seg
	for len(b) > 0 {
		run := b[:min(whole, len(b))]
		if err := c.host.sendRun(run, seg, dst, dport, c.addr); err != nil {
			return err
		}
		b = b[len(run):]
	}
	return nil
}

// ReadFrom receives one datagram: the next of a run a read has begun to
// hand out, else the first of the next queued frame, with the run's
// source.
//
//swift:hotpath
func (c *conn) ReadFrom(p []byte) (int, string, error) {
	n, _, from, err := c.read(p, false)
	return n, from, err
}

// ReadSegments receives, when p holds transport.RunBytes, what is left of
// a run a read has begun to hand out, else the next queued frame whole. A
// shorter p receives one datagram, as ReadFrom does.
//
//swift:hotpath
func (c *conn) ReadSegments(p []byte) (int, int, string, error) {
	return c.read(p, len(p) >= transport.RunBytes)
}

// read copies into p from the held frame, first taking the next frame off
// the queue when none is held: the rest of it when whole, else its next
// datagram, as a run of one. The frame goes back to the pool once all of
// it has been read.
//
//swift:hotpath
func (c *conn) read(p []byte, whole bool) (n, seg int, from string, err error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.held.frame == nil {
		if c.held, err = c.nextLocked(); err != nil {
			return 0, 0, "", err
		}
		c.off = 0
	}
	f := c.held.frame
	seg, from = f.seg, c.held.from
	end := len(f.b)
	if !whole {
		end = min(c.off+seg, end)
	}
	n = copy(p, f.b[c.off:end])
	if !whole {
		seg = n
	}
	if c.off = end; end == len(f.b) {
		c.held = inPacket{}
		c.host.net.releaseFrame(f)
	}
	return n, seg, from, nil
}

// nextLocked takes the next frame off the queue, waiting for one until
// the read deadline. A queued frame is served without touching the clock
// or the timer — also when the deadline has passed, like the socket API.
func (c *conn) nextLocked() (inPacket, error) {
	c.mu.Lock()
	deadline := c.deadline
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return inPacket{}, transport.ErrClosed
	}
	select {
	case pkt := <-c.queue:
		return pkt, nil
	default:
	}

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		//lint:allow clockcheck SetReadDeadline takes a wall-clock time.Time by the transport.PacketConn contract
		d := time.Until(deadline)
		if d <= 0 {
			return inPacket{}, transport.ErrTimeout
		}
		if c.timer == nil {
			//lint:allow clockcheck the read-deadline timer measures real waiting, mirroring the socket API
			c.timer = time.NewTimer(d)
		} else {
			c.timer.Reset(d)
		}
		defer stopTimer(c.timer)
		timeout = c.timer.C
	}

	if c.host.net.holding {
		c.mu.Lock()
		c.waiting++
		c.mu.Unlock()
		defer c.woke()
	}
	select {
	case pkt := <-c.queue:
		return pkt, nil
	case <-timeout:
		return inPacket{}, transport.ErrTimeout
	case <-c.done:
		return inPacket{}, transport.ErrClosed
	}
}

// stopTimer stops t and leaves its channel empty (go.mod says go 1.22: a
// stopped timer can still hold its tick), ready for the next blocking
// read.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// handOff is called as a frame is queued. On a holding clock, a reader
// parked waiting for it holds the clock where it stands until it has run.
func (c *conn) handOff() {
	if !c.host.net.holding {
		return
	}
	now := c.host.net.now()
	c.mu.Lock()
	if c.waiting > 0 {
		c.hold.place(&c.host.net.clock, now)
	}
	c.mu.Unlock()
}

// woke ends a parked read, dropping the hold a delivery placed.
func (c *conn) woke() {
	c.mu.Lock()
	c.waiting--
	c.hold.release(&c.host.net.clock)
	c.mu.Unlock()
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

func (c *conn) Close() error {
	c.host.mu.Lock()
	if c.host.ports[c.port] == c {
		delete(c.host.ports, c.port)
	}
	c.host.mu.Unlock()
	c.markClosed()
	return nil
}

// markClosed marks the conn closed and wakes blocked readers, then hands
// back the frame a read had begun to hand out.
func (c *conn) markClosed() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.mu.Unlock()
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if f := c.held.frame; f != nil {
		c.held = inPacket{}
		c.host.net.releaseFrame(f)
	}
}
