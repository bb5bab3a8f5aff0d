package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"swift/internal/agent"
	"swift/internal/integrity"
	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/transport/memnet"
)

// cluster is a test harness: one client and n agents on a fast memnet
// segment.
type cluster struct {
	net    *memnet.Net
	seg    *memnet.Segment
	client *Client
	agents []*agent.Agent
	stores []*store.Mem
	hosts  []*memnet.Host
}

type clusterOpts struct {
	agents       int
	parity       bool
	parityShards int // number of parity units per row (implies parity when > 0)
	unit         int64
	loss         float64
	syncW        bool
	window       int
	reqBytes     int64

	// integrityBS wraps each agent's store in an integrity envelope with
	// the given block size. c.stores keeps the raw inner Mems, so tests
	// can corrupt bytes beneath the envelope.
	integrityBS int64

	// mtu is the segment's MTU (0 = memnet's default 1500, which keeps
	// every session at the base packet); reorder its ReorderRate.
	mtu     int
	reorder float64
	// agentQueue is the agents' memnet PortQueue (0 = default).
	agentQueue int
	// maxBurst is the agents' MaxBurstBytes (0 = default), readChunk
	// their ReadChunk (0 = default), doneTTL their DoneTTL (0 = default).
	maxBurst  int64
	readChunk int
	doneTTL   time.Duration
	// unthrottled makes the segment one the model charges nothing, the
	// benchmark's: a burst's datagrams cross it as one frame.
	unthrottled bool
	// retryTimeout overrides the client's 30 ms RetryTimeout, maxRetries
	// its 100 retries.
	retryTimeout time.Duration
	maxRetries   int
	// clientHost and agentHost, when set, wrap the client's and each
	// agent's host (to tap their conns).
	clientHost, agentHost func(transport.Host) transport.Host
}

func newCluster(t testing.TB, o clusterOpts) *cluster {
	t.Helper()
	if o.agents == 0 {
		o.agents = 3
	}
	if o.unit == 0 {
		o.unit = 4096
	}
	n := memnet.New(1)
	sc := memnet.SegmentConfig{
		BandwidthBps:  1e10, // effectively instant: tests exercise logic, not timing
		FrameOverhead: 46,
		LossRate:      o.loss,
		ReorderRate:   o.reorder,
		MTU:           o.mtu,
		Seed:          7,
	}
	if o.unthrottled {
		sc.BandwidthBps, sc.FrameOverhead = 1e15, 0
	}
	seg := n.NewSegment("lab", sc)
	c := &cluster{net: n, seg: seg}
	addrs := make([]string, o.agents)
	for i := 0; i < o.agents; i++ {
		h := n.MustHost(agentName(i), memnet.HostConfig{PortQueue: o.agentQueue}, seg)
		st := store.NewMem()
		var as store.Store = st
		if o.integrityBS > 0 {
			as = integrity.NewStore(st, o.integrityBS)
		}
		var ah transport.Host = h
		if o.agentHost != nil {
			ah = o.agentHost(h)
		}
		a, err := agent.New(ah, as, agent.Config{
			ResendCheck:   5 * time.Millisecond,
			ResendAfter:   10 * time.Millisecond,
			MaxBurstBytes: o.maxBurst,
			ReadChunk:     o.readChunk,
			DoneTTL:       o.doneTTL,
		})
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		c.agents = append(c.agents, a)
		c.stores = append(c.stores, st)
		c.hosts = append(c.hosts, h)
		addrs[i] = a.Addr()
	}
	var ch transport.Host = n.MustHost("client", memnet.HostConfig{}, seg)
	if o.clientHost != nil {
		ch = o.clientHost(ch)
	}
	if o.retryTimeout == 0 {
		o.retryTimeout = 30 * time.Millisecond
	}
	if o.maxRetries == 0 {
		o.maxRetries = 100
	}
	cl, err := Dial(Config{
		Host:         ch,
		Agents:       addrs,
		Unit:         o.unit,
		Parity:       o.parity,
		ParityShards: o.parityShards,
		SyncWrites:   o.syncW,
		WriteWindow:  o.window,
		RequestBytes: o.reqBytes,
		RetryTimeout: o.retryTimeout,
		MaxRetries:   o.maxRetries,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.client = cl
	t.Cleanup(func() {
		cl.Close()
		for _, a := range c.agents {
			a.Close()
		}
		n.Close()
	})
	return c
}

func agentName(i int) string { return string(rune('a'+i)) + "gent" }

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()

	data := randBytes(100_000, 1)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := f.Size(); got != int64(len(data)) {
		t.Fatalf("size = %d, want %d", got, len(data))
	}
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnalignedOffsets(t *testing.T) {
	c := newCluster(t, clusterOpts{unit: 1000})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()

	data := randBytes(37_501, 2)
	if _, err := f.WriteAt(data, 317); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Head hole reads as zeros.
	out := make([]byte, 317+len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := 0; i < 317; i++ {
		if out[i] != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, out[i])
		}
	}
	if !bytes.Equal(out[317:], data) {
		t.Fatal("payload mismatch")
	}
	// Interior slice.
	slice := make([]byte, 999)
	if _, err := f.ReadAt(slice, 5000); err != nil {
		t.Fatalf("read slice: %v", err)
	}
	if !bytes.Equal(slice, out[5000:5999]) {
		t.Fatal("interior slice mismatch")
	}
}

func TestSequentialReadWriteSeek(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()

	chunk := randBytes(10_000, 3)
	for i := 0; i < 5; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if pos, _ := f.Seek(0, io.SeekStart); pos != 0 {
		t.Fatalf("seek = %d", pos)
	}
	got := make([]byte, 10_000)
	for i := 0; i < 5; i++ {
		if _, err := io.ReadFull(f, got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, chunk) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
	if _, err := f.Read(got); err != io.EOF {
		t.Fatalf("read at EOF = %v, want io.EOF", err)
	}
	// SeekEnd.
	if pos, _ := f.Seek(-10, io.SeekEnd); pos != 49_990 {
		t.Fatalf("seek end = %d", pos)
	}
	n, err := f.Read(got)
	if n != 10 || (err != nil && err != io.EOF) {
		t.Fatalf("tail read = %d, %v", n, err)
	}
}

func TestOverwrite(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	a := randBytes(50_000, 4)
	b := randBytes(20_000, 5)
	f.WriteAt(a, 0)
	f.WriteAt(b, 10_000)
	copy(a[10_000:], b)
	out := make([]byte, len(a))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, a) {
		t.Fatal("overwrite mismatch")
	}
}

func TestPersistenceAcrossOpens(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	data := randBytes(64_000, 6)
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.WriteAt(data, 0)
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	g, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g.Close()
	if g.Size() != int64(len(data)) {
		t.Fatalf("size after reopen = %d, want %d", g.Size(), len(data))
	}
	out := make([]byte, len(data))
	if _, err := g.ReadAt(out, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("reopen mismatch")
	}
}

func TestStatRemove(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	f.WriteAt(randBytes(12_345, 7), 0)
	f.Close()

	size, err := c.client.Stat("obj")
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if size != 12_345 {
		t.Fatalf("stat size = %d, want 12345", size)
	}
	if err := c.client.Remove("obj"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := c.client.Stat("obj"); err == nil {
		t.Fatal("stat after remove succeeded")
	}
	if _, err := c.client.Open("obj", OpenFlags{}); err == nil {
		t.Fatal("open after remove succeeded")
	}
}

func TestTruncate(t *testing.T) {
	c := newCluster(t, clusterOpts{unit: 1024})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	data := randBytes(30_000, 8)
	f.WriteAt(data, 0)
	if err := f.Truncate(10_000); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if f.Size() != 10_000 {
		t.Fatalf("size = %d", f.Size())
	}
	out := make([]byte, 20_000)
	n, err := f.ReadAt(out, 0)
	if err != io.EOF || n != 10_000 {
		t.Fatalf("read = %d, %v; want 10000, EOF", n, err)
	}
	if !bytes.Equal(out[:n], data[:n]) {
		t.Fatal("truncated content mismatch")
	}
	// Reopen agrees.
	f.Close()
	g, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g.Close()
	if g.Size() != 10_000 {
		t.Fatalf("reopened size = %d", g.Size())
	}
}

func TestLossyNetworkRoundTrip(t *testing.T) {
	c := newCluster(t, clusterOpts{loss: 0.03})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	data := randBytes(200_000, 9)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write under loss: %v", err)
	}
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read under loss: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("lossy round trip mismatch")
	}
}

func TestSyncWrites(t *testing.T) {
	c := newCluster(t, clusterOpts{syncW: true})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(randBytes(20_000, 10), 0); err != nil {
		t.Fatalf("sync write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestManyFilesConcurrently(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	const nf = 8
	errs := make(chan error, nf)
	for i := 0; i < nf; i++ {
		go func(i int) {
			name := "obj" + string(rune('0'+i))
			data := randBytes(30_000, int64(100+i))
			f, err := c.client.Open(name, OpenFlags{Create: true})
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			if _, err := f.WriteAt(data, 0); err != nil {
				errs <- err
				return
			}
			out := make([]byte, len(data))
			if _, err := f.ReadAt(out, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out, data) {
				errs <- io.ErrUnexpectedEOF
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < nf; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent file %d: %v", i, err)
		}
	}
}

func TestFragmentDistribution(t *testing.T) {
	// Data actually lands striped across the agents' stores.
	c := newCluster(t, clusterOpts{unit: 4096})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	f.WriteAt(randBytes(3*4096*4, 11), 0) // 4 full stripes over 3 agents
	for i, st := range c.stores {
		size, err := st.Stat("obj")
		if err != nil {
			t.Fatalf("agent %d has no fragment: %v", i, err)
		}
		if size != 4*4096 {
			t.Fatalf("agent %d fragment = %d, want %d", i, size, 4*4096)
		}
	}
}

func TestReorderedNetworkRoundTrip(t *testing.T) {
	// Datagram reordering: the protocol's offset-addressed packets and
	// extent bookkeeping tolerate out-of-order delivery.
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("lab", memnet.SegmentConfig{
		BandwidthBps:  1e10,
		FrameOverhead: 46,
		ReorderRate:   0.1,
		ReorderDelay:  3 * time.Millisecond,
		Seed:          11,
	})
	addrs := make([]string, 3)
	var agents []*agent.Agent
	for i := 0; i < 3; i++ {
		h := n.MustHost(fmt.Sprintf("r%d", i), memnet.HostConfig{}, seg)
		a, err := agent.New(h, store.NewMem(), agent.Config{
			ResendCheck: 5 * time.Millisecond,
			ResendAfter: 15 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
		addrs[i] = a.Addr()
	}
	ch := n.MustHost("rclient", memnet.HostConfig{}, seg)
	cl, err := Dial(Config{
		Host: ch, Agents: addrs, Unit: 4096,
		RetryTimeout: 40 * time.Millisecond, MaxRetries: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	f, err := cl.Open("reordered", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := randBytes(150_000, 96)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write under reordering: %v", err)
	}
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("read under reordering: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("reordered round trip mismatch")
	}
}
