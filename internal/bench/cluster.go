package bench

import (
	"fmt"
	"time"

	"swift/internal/agent"
	"swift/internal/core"
	"swift/internal/disk"
	"swift/internal/nfs"
	"swift/internal/store"
	"swift/internal/transport/memnet"
)

// Options configures a measured installation.
type Options struct {
	// Scale runs modeled time this many times faster than wall-clock
	// (default 6 — higher scales starve the model of real CPU on small
	// machines and understate data-rates; see DESIGN.md).
	Scale float64
	// Agents is the number of storage agents (default 3).
	Agents int
	// Segments spreads the agents over this many Ethernet segments,
	// all attached to the client (default 1).
	Segments int
	// StreamClient swaps in the TCP-prototype client profile.
	StreamClient bool
	// SyncAgentWrites forces the agents to write through to disk.
	SyncAgentWrites bool
	// SendCPU overrides the client's per-packet send cost (0 = default).
	SendCPU time.Duration
	// Seed seeds loss and disk positioning.
	Seed int64
	// Client is the client's configuration. NewSwiftCluster sets Host,
	// Agents, RetryTimeout, WritePace and Sleep, and fills the paper
	// profile where Client leaves a field zero: a 64 KiB Unit, the
	// prototype's RequestBytes, MaxRetries 200 (an op must survive deep
	// loss; chaos soaks set it much lower so failure attribution
	// outpaces the fault schedule) and WriteWindow 2 (pinned here, so the
	// paper's tables do not move with the engine's default).
	// Monitor.Interval is modeled time, scaled like the protocol timers.
	// Logf, Verbose and Tracer reach the agents too, and Obs, when set,
	// also registers every segment's and host's traffic counters (agents
	// keep private registries: their unlabeled series would collide).
	Client core.Config
}

func (o *Options) fill() {
	if o.Scale == 0 {
		o.Scale = 6
	}
	if o.Agents == 0 {
		o.Agents = 3
	}
	if o.Segments == 0 {
		o.Segments = 1
	}
}

// agentConfig is every modeled storage agent's configuration: protocol
// timers scaled like the network, the prototype's store reads, and the
// client's logging and tracing.
func (o *Options) agentConfig() agent.Config {
	return agent.Config{
		ReadChunk:   AgentReadChunk,
		ResendCheck: scaled(60*time.Millisecond, o.Scale),
		ResendAfter: scaled(120*time.Millisecond, o.Scale),
		SessionIdle: scaled(120*time.Second, o.Scale),
		Logf:        o.Client.Logf,
		Verbose:     o.Client.Verbose,
		Tracer:      o.Client.Tracer,
	}
}

// SwiftCluster is a measured Swift installation: a client and N storage
// agents with modeled SCSI disks on one or more modeled Ethernets.
type SwiftCluster struct {
	Net        *memnet.Net
	Segments   []*memnet.Segment
	Client     *core.Client
	Agents     []*agent.Agent
	AgentHosts []*memnet.Host
	stores     []*store.DiskStore
	opts       Options
}

// scaled converts a modeled duration to the real duration protocol timers
// must use.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) / scale)
}

// NewSwiftCluster builds the installation and dials the client.
func NewSwiftCluster(opts Options) (*SwiftCluster, error) {
	opts.fill()
	n := memnet.NewModeled(opts.Scale)
	c := &SwiftCluster{Net: n, opts: opts}

	for s := 0; s < opts.Segments; s++ {
		seg := n.NewSegment(fmt.Sprintf("ether%d", s), EthernetSegment(opts.Seed+int64(s)))
		if opts.Client.Obs != nil {
			seg.Register(opts.Client.Obs)
		}
		c.Segments = append(c.Segments, seg)
	}

	addrs := make([]string, opts.Agents)
	for i := 0; i < opts.Agents; i++ {
		seg := c.Segments[i%len(c.Segments)]
		host, err := n.NewHost(fmt.Sprintf("slc%d", i), SLCAgentHost(), seg)
		if err != nil {
			return nil, err
		}
		dev := disk.NewDevice(disk.ProfileSunSCSI(),
			disk.WithSleeper(n.Sleeper()),
			disk.WithAsyncWrites(AsyncWriteRate),
			disk.WithSeed(opts.Seed+100+int64(i)))
		st := store.NewDiskStore(store.NewMem(), dev)
		st.SyncWrites = opts.SyncAgentWrites
		a, err := agent.New(host, st, opts.agentConfig())
		if err != nil {
			return nil, err
		}
		if opts.Client.Obs != nil {
			host.Register(opts.Client.Obs)
		}
		c.Agents = append(c.Agents, a)
		c.AgentHosts = append(c.AgentHosts, host)
		c.stores = append(c.stores, st)
		addrs[i] = a.Addr()
	}

	clientProfile := SparcClientHost()
	if opts.StreamClient {
		clientProfile = StreamClientHost()
	}
	if opts.SendCPU != 0 {
		clientProfile.SendCPU = opts.SendCPU
	}
	clientHost, err := n.NewHost("sparc2", clientProfile, c.Segments...)
	if err != nil {
		return nil, err
	}
	if opts.Client.Obs != nil {
		clientHost.Register(opts.Client.Obs)
	}
	cfg := opts.Client
	cfg.Host = clientHost
	cfg.Agents = addrs
	cfg.RetryTimeout = scaled(400*time.Millisecond, opts.Scale)
	cfg.WritePace = WritePace
	cfg.Sleep = n.Sleep
	cfg.Monitor.Interval = scaled(cfg.Monitor.Interval, opts.Scale)
	if cfg.Unit == 0 {
		cfg.Unit = 64 * 1024
	}
	if cfg.RequestBytes == 0 {
		cfg.RequestBytes = RequestBytes
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 200
	}
	if cfg.WriteWindow == 0 {
		cfg.WriteWindow = 2
	}
	cl, err := core.Dial(cfg)
	if err != nil {
		return nil, err
	}
	c.Client = cl
	return c, nil
}

// CrashAgent kills storage agent i's server process: its sessions, handles
// and private ports die with it; the host and its store survive.
func (c *SwiftCluster) CrashAgent(i int) error {
	if i < 0 || i >= len(c.Agents) || c.Agents[i] == nil {
		return fmt.Errorf("bench: no agent %d to crash", i)
	}
	c.Agents[i].Close()
	c.Agents[i] = nil
	return nil
}

// RestartAgent brings a crashed agent back on the same host, store and
// well-known port, as a rebooted machine would.
func (c *SwiftCluster) RestartAgent(i int) error {
	if i < 0 || i >= len(c.Agents) {
		return fmt.Errorf("bench: no agent %d to restart", i)
	}
	if c.Agents[i] != nil {
		return nil // still running
	}
	a, err := agent.New(c.AgentHosts[i], c.stores[i], c.opts.agentConfig())
	if err != nil {
		return err
	}
	c.Agents[i] = a
	return nil
}

// Close tears the installation down.
func (c *SwiftCluster) Close() {
	if c.Client != nil {
		c.Client.Close()
	}
	for _, a := range c.Agents {
		if a != nil {
			a.Close()
		}
	}
}

// NFSCluster is the Table 3 installation: one NFS server with IPI drives
// and the SPARCstation client on a shared Ethernet.
type NFSCluster struct {
	Net    *memnet.Net
	Client *nfs.Client
	Server *nfs.Server
	opts   Options
}

// NewNFSCluster builds the NFS installation.
func NewNFSCluster(opts Options) (*NFSCluster, error) {
	opts.fill()
	n := memnet.NewModeled(opts.Scale)
	seg := n.NewSegment("dept", EthernetSegment(opts.Seed))

	srvHost, err := n.NewHost("sun4-390", ServerHost(), seg)
	if err != nil {
		return nil, err
	}
	dev := disk.NewDevice(disk.ProfileSunIPI(),
		disk.WithSleeper(n.Sleeper()),
		disk.WithSeed(opts.Seed+200))
	st := store.NewDiskStore(store.NewMem(), dev)
	st.SyncWrites = true // NFS v2 write-through
	srv, err := nfs.NewServer(srvHost, st, dev, nfs.ServerConfig{
		CPUPerRPC: NFSServerCPU,
		Sleep:     n.Sleep,
	})
	if err != nil {
		return nil, err
	}

	clientHost, err := n.NewHost("sparc2", SparcClientHost(), seg)
	if err != nil {
		srv.Close()
		return nil, err
	}
	cl, err := nfs.Dial(clientHost, nfs.ClientConfig{
		Server:       srv.Addr(),
		RetryTimeout: scaled(700*time.Millisecond, opts.Scale),
		MaxRetries:   50,
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &NFSCluster{Net: n, Client: cl, Server: srv, opts: opts}, nil
}

// Close tears the installation down.
func (c *NFSCluster) Close() {
	if c.Client != nil {
		c.Client.Close()
	}
	if c.Server != nil {
		c.Server.Close()
	}
}
