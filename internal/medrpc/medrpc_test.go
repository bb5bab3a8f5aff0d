package medrpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"swift/internal/mediator"
	"swift/internal/obs"
	"swift/internal/transport"
	"swift/internal/transport/memnet"
	"swift/internal/wire"
)

// testTier stands up nReplicas federated mediator replicas, each served
// over its own memnet host, peered through wire Mirror RPCs — the full
// deployment shape, minus real sockets.
type testTier struct {
	net     *memnet.Net
	seg     *memnet.Segment
	meds    []*mediator.Mediator
	servers []*Server
	clients []*Client // stubs from the test-client host
}

func newTestTier(t *testing.T, nReplicas int, ttl time.Duration) *testTier {
	t.Helper()
	n := memnet.New(1)
	seg := n.NewSegment("lab", memnet.SegmentConfig{BandwidthBps: 1e9})
	agents := make([]mediator.AgentInfo, 6)
	for i := range agents {
		agents[i] = mediator.AgentInfo{Addr: "agent:7070", Rate: 400e3, Net: 0}
	}
	tier := &testTier{net: n, seg: seg}
	t.Cleanup(func() {
		for _, s := range tier.servers {
			s.Close()
		}
		for _, m := range tier.meds {
			m.Close()
		}
		n.Close()
	})
	names := make([]string, nReplicas)
	for i := range names {
		names[i] = "med-" + string(rune('a'+i))
	}
	for _, name := range names {
		cfg := mediator.Config{
			Agents:   agents,
			Nets:     []mediator.NetInfo{{Name: "lab", Capacity: 1e9}},
			Self:     name,
			LeaseTTL: ttl,
		}
		med, err := mediator.New(cfg)
		if err != nil {
			t.Fatalf("mediator %s: %v", name, err)
		}
		tier.meds = append(tier.meds, med)
		host := n.MustHost(name, memnet.HostConfig{}, seg)
		srv, err := Serve(ServerConfig{Host: host, Port: "7060", Med: med, Logf: t.Logf})
		if err != nil {
			t.Fatalf("serve %s: %v", name, err)
		}
		tier.servers = append(tier.servers, srv)
	}
	// Peer each replica to the others over the wire.
	for i, med := range tier.meds {
		var peers []mediator.Peer
		for j, name := range names {
			if j == i {
				continue
			}
			pc, err := NewClient(ClientConfig{
				Host: n.MustHost(names[i]+"-to-"+name, memnet.HostConfig{}, seg),
				Name: name,
				Addr: name + ":7060",
			})
			if err != nil {
				t.Fatalf("peer stub %s->%s: %v", names[i], name, err)
			}
			peers = append(peers, pc)
		}
		med.SetPeers(peers)
	}
	ch := n.MustHost("client", memnet.HostConfig{}, seg)
	for _, name := range names {
		c, err := NewClient(ClientConfig{Host: ch, Name: name, Addr: name + ":7060"})
		if err != nil {
			t.Fatalf("client stub %s: %v", name, err)
		}
		tier.clients = append(tier.clients, c)
	}
	return tier
}

func TestRPCRoundTrips(t *testing.T) {
	tier := newTestTier(t, 1, 0)
	c := tier.clients[0]

	rec, err := c.Admit(mediator.Requirements{Rate: 800e3, Redundancy: true, ParityShards: 2, Key: "tenant-a"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if rec.Home != "med-a" || rec.Key != "tenant-a" {
		t.Fatalf("record home=%q key=%q", rec.Home, rec.Key)
	}
	if !rec.Plan.Parity || rec.Plan.ParityShards != 2 || len(rec.Plan.Agents) < 3 {
		t.Fatalf("plan did not survive the wire: %+v", rec.Plan)
	}
	if len(rec.Plan.Addrs) != len(rec.Plan.Agents) {
		t.Fatalf("addrs/agents mismatch: %d vs %d", len(rec.Plan.Addrs), len(rec.Plan.Agents))
	}

	home, err := c.RenewSession(*rec, obs.SpanContext{})
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	if home != "med-a" {
		t.Fatalf("renew home = %q", home)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Name != "med-a" || st.Role != "active" || st.Sessions != 1 || st.HomeSessions != 1 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.AgentReserved) != 6 || st.AgentReserved[rec.Plan.Agents[0]] == 0 {
		t.Fatalf("reservation ratios did not survive the wire: %v", st.AgentReserved)
	}

	if err := c.CloseSession(rec.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	if tier.meds[0].Sessions() != 0 {
		t.Fatal("session survived the wire close")
	}
}

func TestRPCErrorSentinelsSurviveTheWire(t *testing.T) {
	tier := newTestTier(t, 1, 0)
	c := tier.clients[0]
	if _, err := c.Admit(mediator.Requirements{Rate: 1e12}, obs.SpanContext{}); !errors.Is(err, mediator.ErrUnsatisfiable) {
		t.Fatalf("unsatisfiable came back as: %v", err)
	}
	if err := c.CloseSession(999); err != nil {
		t.Fatalf("close is idempotent in-process; over the wire: %v", err)
	}
	if _, err := tier.meds[0].Drain(); err == nil {
		// One replica, no peers, no sessions: drain succeeds trivially.
	}
	tier.meds[0].Kill()
	if _, err := c.Admit(mediator.Requirements{Rate: 1e3}, obs.SpanContext{}); !errors.Is(err, mediator.ErrReplicaDown) {
		t.Fatalf("replica-down came back as: %v", err)
	}
}

func TestWireFederationMirrorsAndFailsOver(t *testing.T) {
	tier := newTestTier(t, 3, time.Minute)
	rec, err := tier.clients[0].Admit(mediator.Requirements{Rate: 400e3, Key: "tenant-a"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	tier.meds[0].WaitMirrors()
	for i, med := range tier.meds {
		if n := med.Sessions(); n != 1 {
			t.Fatalf("replica %d: sessions = %d after wire mirror", i, n)
		}
	}
	// Crash the home: the server stops answering, the client stub times
	// out, and a renewal against a survivor adopts the session.
	tier.servers[0].Close()
	tier.meds[0].Kill()
	if _, err := tier.clients[0].RenewSession(*rec, obs.SpanContext{}); !errors.Is(err, ErrMediatorDown) {
		t.Fatalf("renew against crashed replica: %v", err)
	}
	home, err := tier.clients[1].RenewSession(*rec, obs.SpanContext{})
	if err != nil {
		t.Fatalf("renew on survivor: %v", err)
	}
	if home != "med-b" {
		t.Fatalf("adopted home = %q, want med-b", home)
	}
	st, err := tier.clients[1].Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Failovers != 1 || st.HomeSessions != 1 {
		t.Fatalf("survivor status = %+v", st)
	}
}

func TestWireDrainHandsOff(t *testing.T) {
	tier := newTestTier(t, 3, time.Minute)
	rec, err := tier.clients[0].Admit(mediator.Requirements{Rate: 400e3, Key: "tenant-a"}, obs.SpanContext{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	tier.meds[0].WaitMirrors()
	handed, err := tier.clients[0].Drain()
	if err != nil {
		t.Fatalf("drain rpc: %v", err)
	}
	if handed != 1 {
		t.Fatalf("handed = %d, want 1", handed)
	}
	home, err := tier.clients[0].RenewSession(*rec, obs.SpanContext{})
	if err != nil {
		t.Fatalf("renew on draining replica: %v", err)
	}
	if home == "med-a" {
		t.Fatal("drained replica still claims the session")
	}
	st, err := tier.clients[0].Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Role != "draining" || st.Handoffs != 1 {
		t.Fatalf("status after drain = %+v", st)
	}
	if _, err := tier.clients[0].Admit(mediator.Requirements{Rate: 1e3}, obs.SpanContext{}); !errors.Is(err, mediator.ErrDraining) {
		t.Fatalf("admit on draining came back as: %v", err)
	}
}

// TestOpenRetransmitDoesNotDoubleAdmit: admission is not idempotent, so
// when the TMedOpenReply is lost and the client retransmits the same
// (source, ReqID), the server must replay the original record instead of
// admitting a second, orphaned session that double-reserves capacity.
func TestOpenRetransmitDoesNotDoubleAdmit(t *testing.T) {
	tier := newTestTier(t, 1, 0)
	conn, err := tier.net.MustHost("raw-client", memnet.HostConfig{}, tier.seg).Listen("0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer conn.Close()
	req := &wire.Packet{
		Header:  wire.Header{Type: wire.TMedOpen, ReqID: 7},
		Payload: wire.AppendMedOpenRequest(nil, &wire.MedOpenRequest{Rate: 1e3, Key: "tenant-a"}),
	}
	buf, err := wire.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	read := func() *wire.Packet {
		t.Helper()
		rbuf := make([]byte, wire.MaxPacket)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		nn, _, err := conn.ReadFrom(rbuf)
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		var pkt wire.Packet
		if err := wire.Unmarshal(rbuf[:nn], &pkt); err != nil {
			t.Fatalf("unmarshal reply: %v", err)
		}
		return &pkt
	}
	if err := conn.WriteTo(buf, "med-a:7060"); err != nil {
		t.Fatalf("send: %v", err)
	}
	r1 := read()
	if err := conn.WriteTo(buf, "med-a:7060"); err != nil { // retransmit, same ReqID
		t.Fatalf("resend: %v", err)
	}
	r2 := read()
	if r1.Type != wire.TMedOpenReply || r2.Type != wire.TMedOpenReply {
		t.Fatalf("reply types %v, %v", r1.Type, r2.Type)
	}
	if r1.Handle != r2.Handle {
		t.Fatalf("retransmit admitted a second session: %#x vs %#x", r1.Handle, r2.Handle)
	}
	if n := tier.meds[0].Sessions(); n != 1 {
		t.Fatalf("sessions = %d after retransmitted open, want 1", n)
	}
}

// TestWireRecordRangeValidation: fields that travel as uint16 must fail
// encoding when out of range, not silently truncate into a corrupt
// record.
func TestWireRecordRangeValidation(t *testing.T) {
	good := mediator.SessionRecord{ID: 1, Plan: mediator.Plan{Agents: []int{0, 65535}, Addrs: []string{"a", "b"}, Rate: 1}}
	if _, err := toWireRecord(&good); err != nil {
		t.Fatalf("in-range record refused: %v", err)
	}
	for name, rec := range map[string]mediator.SessionRecord{
		"agent index too big":   {ID: 2, Plan: mediator.Plan{Agents: []int{70000}}},
		"agent index negative":  {ID: 3, Plan: mediator.Plan{Agents: []int{-1}}},
		"parity shards too big": {ID: 4, Plan: mediator.Plan{ParityShards: 1 << 16}},
	} {
		if _, err := toWireRecord(&rec); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
	if _, err := (&Client{}).RenewSession(mediator.SessionRecord{Plan: mediator.Plan{Agents: []int{70000}}}, obs.SpanContext{}); err == nil {
		t.Error("client renew encoded an unencodable record")
	}
}

func TestClientRetransmitsThroughLoss(t *testing.T) {
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("lossy", memnet.SegmentConfig{BandwidthBps: 1e9})
	med, err := mediator.New(mediator.Config{
		Agents: []mediator.AgentInfo{{Addr: "a:1", Rate: 1e6, Net: 0}},
		Nets:   []mediator.NetInfo{{Name: "lossy", Capacity: 1e9}},
		Self:   "med-a",
	})
	if err != nil {
		t.Fatalf("mediator: %v", err)
	}
	defer med.Close()
	srv, err := Serve(ServerConfig{Host: n.MustHost("med-a", memnet.HostConfig{}, seg), Port: "7060", Med: med, Logf: t.Logf})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	c, err := NewClient(ClientConfig{
		Host:    n.MustHost("client", memnet.HostConfig{}, seg),
		Name:    "med-a",
		Addr:    "med-a:7060",
		Retries: 10,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	seg.SetLossRate(0.3)
	for i := 0; i < 5; i++ {
		rec, err := c.Admit(mediator.Requirements{Rate: 1e3}, obs.SpanContext{})
		if err != nil {
			t.Fatalf("admit %d through loss: %v", i, err)
		}
		if err := c.CloseSession(rec.ID); err != nil {
			t.Fatalf("close %d through loss: %v", i, err)
		}
	}
}

// TestOverloadRejectionSurvivesTheWire drives a watermarked replica past
// its admission watermark over the wire and checks the typed rejection —
// sentinel and retry-after hint — is reconstructed client-side.
func TestOverloadRejectionSurvivesTheWire(t *testing.T) {
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("lab", memnet.SegmentConfig{BandwidthBps: 1e9})
	med, err := mediator.New(mediator.Config{
		Agents:         []mediator.AgentInfo{{Addr: "agent:7070", Rate: 400e3, Net: 0}},
		Nets:           []mediator.NetInfo{{Name: "lab", Capacity: 1e9}},
		AdmitWatermark: 0.5,
	})
	if err != nil {
		t.Fatalf("mediator: %v", err)
	}
	defer med.Close()
	srv, err := Serve(ServerConfig{
		Host: n.MustHost("med", memnet.HostConfig{}, seg),
		Port: "7060",
		Med:  med,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	c, err := NewClient(ClientConfig{
		Host: n.MustHost("client", memnet.HostConfig{}, seg),
		Name: "med",
		Addr: "med:7060",
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if _, err := c.Admit(mediator.Requirements{Rate: 300e3}, obs.SpanContext{}); err != nil {
		t.Fatalf("admit under watermark: %v", err)
	}
	_, err = c.Admit(mediator.Requirements{Rate: 100e3}, obs.SpanContext{})
	if !errors.Is(err, mediator.ErrOverloaded) {
		t.Fatalf("overload came back as: %v", err)
	}
	var oe *mediator.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter < 50*time.Millisecond {
		t.Fatalf("retry-after hint did not survive the wire: %v", err)
	}
}

// TestParseRetryAfter covers the hint parser's malformed-input paths.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		msg  string
		want time.Duration
	}{
		{"mediator: overloaded (retry after 250ms)", 250 * time.Millisecond},
		{"mediator: overloaded (retry after 1.5s)", 1500 * time.Millisecond},
		{"mediator: overloaded", 0},
		{"retry after garbage)", 0},
		{"retry after -5s)", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.msg); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.msg, got, tc.want)
		}
	}
}

// TestWireWriterRoundsCrossHomes: two writers homed on different
// replicas declare writes at the same moment. Each round delivers its
// generation bump to the other replica before it answers, so once both
// have returned each replica knows both writes; and neither round waits
// out the other's RPC budget, since a replica serves coherence rounds off
// its receive loop and keeps applying mirrors meanwhile.
func TestWireWriterRoundsCrossHomes(t *testing.T) {
	tier := newTestTier(t, 2, time.Minute)
	var ids [2]uint64
	for i := range ids {
		rec, err := tier.clients[i].Admit(mediator.Requirements{Rate: 100e3}, obs.SpanContext{})
		if err != nil {
			t.Fatalf("admit on %s: %v", tier.meds[i].Name(), err)
		}
		ids[i] = rec.ID
	}
	for round := uint64(1); round <= 5; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(ids))
		for i := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = tier.clients[i].CacheSync(ids[i], nil, []string{fmt.Sprint("obj-", i)})
			}()
		}
		wg.Wait()
		for i, med := range tier.meds {
			if errs[i] != nil {
				t.Fatalf("round %d: writer on %s: %v", round, med.Name(), errs[i])
			}
			for j := range ids {
				if g := med.ObjectGen(fmt.Sprint("obj-", j)); g != round {
					t.Fatalf("round %d: %s has obj-%d at generation %d", round, med.Name(), j, g)
				}
			}
		}
	}
}

// TestLateShedReleasesAdmission pins the server half of the deadline
// contract: a TMedOpen whose budget has elapsed by the time admission is
// done is shed — counted, unanswered — and the session it admitted is
// released rather than left for nobody to renew or close.
func TestLateShedReleasesAdmission(t *testing.T) {
	n := memnet.New(1)
	defer n.Close()
	seg := n.NewSegment("lab", memnet.SegmentConfig{BandwidthBps: 1e9})
	med, err := mediator.New(mediator.Config{
		Agents: []mediator.AgentInfo{{Addr: "agent:7070", Rate: 400e3, Net: 0}},
		Nets:   []mediator.NetInfo{{Name: "lab", Capacity: 1e9}},
	})
	if err != nil {
		t.Fatalf("mediator: %v", err)
	}
	defer med.Close()
	srv, err := Serve(ServerConfig{Host: n.MustHost("med", memnet.HostConfig{}, seg), Port: "7060", Med: med, Logf: t.Logf})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	conn, err := n.MustHost("client", memnet.HostConfig{}, seg).Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req, err := wire.Marshal(&wire.Packet{
		Header:   wire.Header{Type: wire.TMedOpen, ReqID: 1},
		Deadline: time.Nanosecond,
		Payload:  wire.AppendMedOpenRequest(nil, &wire.MedOpenRequest{Rate: 100e3, Key: "late"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteTo(req, "med:7060"); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(5 * time.Second); srv.ev.Load(evLateShed, -1) == 0 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if got := srv.ev.Load(evLateShed, -1); got != 1 {
		t.Fatalf("late sheds = %d, want 1", got)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, _, err := conn.ReadFrom(make([]byte, wire.MaxPacket)); !transport.IsTimeout(err) {
		t.Fatalf("a shed request was answered (read err %v)", err)
	}
	if got := med.Sessions(); got != 0 {
		t.Fatalf("mediator holds %d sessions after the shed, want 0", got)
	}
}
