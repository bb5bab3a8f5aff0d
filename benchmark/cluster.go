package main

import (
	"fmt"
	"os"

	"swift/internal/agent"
	"swift/internal/core"
	"swift/internal/integrity"
	"swift/internal/obs"
	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/transport/memnet"
	"swift/internal/transport/udpnet"
)

// integrityBlock is the envelope block size `swiftd -integrity` uses.
const integrityBlock = 4096

// probes are the decorator counters and tracer of a traced cluster.
type probes struct {
	tracer     *obs.Tracer
	clientConn counters
	agentConn  counters
	// storeOuter wraps what agent.New is given; storeInner sits between
	// the integrity envelope and its backing store, and stays zero on
	// workloads without an envelope.
	storeOuter counters
	storeInner counters
}

// cluster is one in-process installation with no medium model: agents and
// one client on either an unthrottled memnet segment or UDP loopback.
type cluster struct {
	s      *spec
	client *core.Client
	agents []*agent.Agent
	probes *probes // nil when untraced

	net      *memnet.Net
	memHosts []*memnet.Host
	udpHosts []*udpnet.Host
	tmp      string // FileStore root, removed by close
}

// buildCluster assembles the workload's installation. traced installs the
// tracer and the transport/store decorators; wrapStore, when non-nil,
// wraps the store each agent serves (tests use it to corrupt reads).
func buildCluster(s *spec, traced bool, wrapStore func(store.Store) store.Store) (c *cluster, err error) {
	c = &cluster{s: s}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if traced {
		c.probes = &probes{tracer: obs.NewTracer(obs.TracerConfig{Rate: 1, Keep: 4096})}
	}
	if s.fileStore {
		if c.tmp, err = os.MkdirTemp("", "swift-ladder-"); err != nil {
			return nil, err
		}
	}

	var seg *memnet.Segment
	if !s.udp {
		c.net = memnet.New(1)
		// No medium model: a frame occupies the bus for ~10 ps, and hosts
		// charge no per-packet CPU, so only real CPU time passes.
		seg = c.net.NewSegment("bus", memnet.SegmentConfig{BandwidthBps: 1e15})
	}
	// counted is nil on an untraced cluster, which gets the bare host.
	newHost := func(name string, counted *counters) (transport.Host, error) {
		var h transport.Host
		if s.udp {
			uh := udpnet.NewHost("127.0.0.1")
			c.udpHosts = append(c.udpHosts, uh)
			h = uh
		} else {
			mh, err := c.net.NewHost(name, memnet.HostConfig{}, seg)
			if err != nil {
				return nil, err
			}
			c.memHosts = append(c.memHosts, mh)
			h = mh
		}
		if counted != nil {
			h = probedHost{Host: h, c: counted}
		}
		return h, nil
	}

	var agentConn, clientConn *counters
	if traced {
		agentConn, clientConn = &c.probes.agentConn, &c.probes.clientConn
	}

	addrs := make([]string, s.agents)
	for i := range addrs {
		host, err := newHost(fmt.Sprintf("agent%d", i), agentConn)
		if err != nil {
			return nil, err
		}
		st, err := c.newStore(i, traced)
		if err != nil {
			return nil, err
		}
		if wrapStore != nil {
			st = wrapStore(st)
		}
		cfg := agent.Config{Port: "0"}
		if traced {
			cfg.Tracer = c.probes.tracer
		}
		a, err := agent.New(host, st, cfg)
		if err != nil {
			return nil, err
		}
		c.agents = append(c.agents, a)
		addrs[i] = a.Addr()
	}

	host, err := newHost("client", clientConn)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Host:         host,
		Agents:       addrs,
		Unit:         stripeUnit,
		ParityShards: s.parity,
		CacheSize:    s.cacheSize,
		ReadAhead:    s.readAhead,
	}
	if traced {
		cfg.Tracer = c.probes.tracer
	}
	if c.client, err = core.Dial(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *cluster) newStore(i int, traced bool) (store.Store, error) {
	var st store.Store = store.NewMem()
	if c.s.fileStore {
		fs, err := store.NewFileStore(fmt.Sprintf("%s/agent%d", c.tmp, i))
		if err != nil {
			return nil, err
		}
		st = fs
		if traced {
			st = probedStore{Store: st, c: &c.probes.storeInner}
		}
		st = integrity.NewStore(st, integrityBlock)
	}
	if traced {
		st = probedStore{Store: st, c: &c.probes.storeOuter}
	}
	return st, nil
}

// drops sums datagrams the transports discarded: memnet queue overflows,
// or on UDP the datagrams sent that no socket of the cluster received.
func (c *cluster) drops() int64 {
	var n int64
	for _, h := range c.memHosts {
		n += h.Drops()
	}
	var in, out int64
	for _, h := range c.udpHosts {
		st := h.Stats()
		in += st.PacketsIn
		out += st.PacketsOut
	}
	return n + out - in
}

func (c *cluster) udpPackets() int64 {
	var n int64
	for _, h := range c.udpHosts {
		n += h.Stats().PacketsOut
	}
	return n
}

// close stops every goroutine of the installation and removes its files.
func (c *cluster) close() {
	if c.client != nil {
		c.client.Close()
	}
	for _, a := range c.agents {
		a.Close()
	}
	if c.net != nil {
		c.net.Close()
	}
	if c.tmp != "" {
		os.RemoveAll(c.tmp)
	}
}
